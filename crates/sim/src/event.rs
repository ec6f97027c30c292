//! Discrete-event serving simulation: queueing, continuous batching, and
//! load-dependent latency.
//!
//! The analytic [`Engine`](crate::Engine) replays traces with zero
//! service time — arrival timestamps only *order* requests, so queueing
//! delay, device occupancy, and the load regime where the paper's P95 TTFT
//! reductions actually materialize are invisible. This module adds the
//! missing discipline: arrivals pass through a virtual clock into a
//! per-device FIFO admission queue and a continuous-batching
//! [`executor`](crate::BatchConfig) (token-level scheduling: chunked
//! prefill shared FIFO across the batch, one decode token per decoding
//! request per iteration, completed requests free their slot mid-batch).
//! Prefill cost is the *uncached* FLOPs left after the prefix-cache lookup
//! at admission; decode cost comes from the same analytic
//! [`GpuModel`]. A sequence enters the cache at
//! **completion**, not arrival, so under load the cache sees the true
//! serving interleaving.
//!
//! There is one event loop. [`EventCluster`] runs it over N replicas behind
//! a [`Router`] — [`QueueAware`](crate::QueueAware) lets placement trade
//! prefix locality against real-time queue depth — and [`EventSim`] is its
//! N = 1, router-less call.
//!
//! Determinism contract: the whole subsystem is a pure function of
//! `(trace, cache configuration, BatchConfig, GpuModel)` — no wall
//! clock, no randomness anywhere; simultaneous events resolve executor
//! events before arrivals, then by replica index, then FIFO. The
//! zero-load anchor: the infinite-throughput limit
//! ([`EventSim::instantaneous`], [`ClusterBuilder::instantaneous`]) with
//! empty queues reproduces the analytic `Engine` **byte-for-byte**
//! (identical `CacheStats` and per-request hit tokens — the parity tests
//! and `ARCHITECTURE.md` pin this), so every claim established on the
//! engine transfers to the event layer's zero-load limit.

use crate::cluster::{route, ClusterBuilder, ClusterReport, Router};
use crate::engine::{check_arrival, Replica};
use crate::executor::{BatchConfig, Executor};
use crate::gpu::GpuModel;
use crate::report::SimReport;
use marconi_core::{CacheStats, HybridPrefixCache, PrefixCache};
use marconi_model::ModelConfig;
use marconi_trace::Tracer;
use marconi_workload::{Request, Trace};

/// Aggregate result of one discrete-event run on one device.
pub type EventReport = SimReport;

/// Result of one [`EventCluster::run`].
pub type EventClusterReport = ClusterReport;

/// The event loop: replays `trace` under the virtual clock across
/// `replicas`, one fresh executor each, and returns one report per replica.
///
/// Arrivals are events; the ends of the executors' segments are the only
/// other event source. Each arrival joins the FIFO of the replica `route`
/// picks (given the live executors, for their queue depths). Simultaneous
/// events resolve deterministically: executor iterations before arrivals (a
/// completing request admits its sequence before a simultaneous arrival
/// looks it up — matching the engine's per-request lookup→insert order in
/// the zero-load limit), lower replica index first, then FIFO.
///
/// # Panics
///
/// Panics, before routing it, on an arrival that is not finite or precedes
/// its predecessor's: an executor cuts a decode segment at the first
/// boundary after each arrival, which is the boundary that admits it only
/// while arrivals are in order.
fn drive<'t, C: PrefixCache>(
    replicas: &mut [Replica<C>],
    gpu: &GpuModel,
    batch: &BatchConfig,
    trace: &'t Trace,
    mut route: impl FnMut(&'t Request, &[Replica<C>], &[Executor<'_>]) -> usize,
) -> Vec<SimReport> {
    let mut execs: Vec<Executor<'_>> = replicas.iter().map(|_| Executor::new(batch, gpu)).collect();
    let mut arrivals = trace.arrivals().peekable();
    let mut last_arrival = f64::NEG_INFINITY;
    loop {
        let exec_event = execs
            .iter()
            .enumerate()
            .filter_map(|(k, e)| e.next_event().map(|t| (k, t)))
            .min_by(|(ka, ta), (kb, tb)| ta.total_cmp(tb).then(ka.cmp(kb)));
        let arrival = arrivals.peek().map(|r| r.arrival);
        match (exec_event, arrival) {
            (Some((k, te)), Some(ta)) if te <= ta => execs[k].advance(&mut replicas[k], te),
            (_, Some(ta)) => {
                let req = arrivals
                    .next()
                    .expect("invariant: the peeked arrival is still in the iterator");
                last_arrival = check_arrival(req, last_arrival);
                let k = route(req, replicas, &execs);
                execs[k].enqueue(req, &mut replicas[k], ta);
            }
            (Some((k, te)), None) => execs[k].advance(&mut replicas[k], te),
            (None, None) => break,
        }
    }
    replicas
        .iter()
        .zip(&mut execs)
        .map(|(replica, exec)| {
            let mut records = exec.take_records();
            records.sort_by_key(|r| r.id);
            replica.report(trace, records, exec.busy_s(), exec.iterations())
        })
        .collect()
}

/// Discrete-event serving simulator for one device: FIFO admission queue
/// in front of a continuous-batching executor, driving any
/// [`PrefixCache`].
///
/// # Examples
///
/// ```
/// use marconi_core::HybridPrefixCache;
/// use marconi_model::ModelConfig;
/// use marconi_sim::{EventSim, GpuModel};
/// use marconi_workload::{DatasetKind, TraceGenerator};
///
/// let cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
///     .capacity_bytes(8 << 30)
///     .build();
/// let mut sim = EventSim::new(cache, GpuModel::a100_x4());
/// let trace = TraceGenerator::new(DatasetKind::ShareGpt)
///     .sessions(3)
///     .seed(5)
///     .generate();
/// let report = sim.run(&trace);
/// assert_eq!(report.records.len(), trace.len());
/// // TTFT now includes queueing delay on top of prefill service.
/// assert!(report.records.iter().all(|r| r.ttft_ms >= r.queue_ms));
/// ```
#[derive(Debug)]
pub struct EventSim<C> {
    replica: Replica<C>,
    gpu: GpuModel,
    batch: BatchConfig,
}

impl<C: PrefixCache> EventSim<C> {
    /// Creates a simulator whose iteration latencies come from `gpu`.
    #[must_use]
    pub fn new(cache: C, gpu: GpuModel) -> Self {
        EventSim {
            replica: Replica::new(cache, None),
            gpu,
            batch: BatchConfig::default(),
        }
    }

    /// Creates a simulator in the infinite-throughput limit: every
    /// iteration takes zero virtual time, so queues never form and the run
    /// reproduces the analytic [`Engine`](crate::Engine)
    /// byte-for-byte (the zero-load parity contract).
    #[must_use]
    pub fn instantaneous(cache: C) -> Self {
        Self::new(cache, GpuModel::unbounded())
    }

    /// Attaches a tracer to the executor's own decisions (queue
    /// admissions, batch-iteration boundaries, reload pricing).
    /// Cache-level events are attached on the cache itself.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.replica.tracer = tracer;
    }

    /// Overrides the continuous-batching knobs.
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

    /// Replays `trace` under the virtual clock and returns the report.
    /// Cache and cursor state persist across calls, like `Engine`, and
    /// `cache_stats` is cumulative.
    ///
    /// # Panics
    ///
    /// Panics if an arrival is not finite or precedes its predecessor's.
    pub fn run(&mut self, trace: &Trace) -> EventReport {
        let replica = std::slice::from_mut(&mut self.replica);
        drive(replica, &self.gpu, &self.batch, trace, |_, _, _| 0)
            .pop()
            .expect("invariant: one replica yields one report")
    }
}

/// N event-driven replicas — each its own FIFO queue, executor, and cache
/// slice — behind a [`Router`] that sees real-time queue depth.
///
/// # Examples
///
/// ```
/// use marconi_model::ModelConfig;
/// use marconi_sim::{EventCluster, RoutingPolicy};
/// use marconi_workload::{DatasetKind, TraceGenerator};
///
/// let trace = TraceGenerator::new(DatasetKind::ShareGpt)
///     .sessions(8)
///     .tenants(4)
///     .seed(3)
///     .generate();
/// let mut cluster = EventCluster::builder(ModelConfig::hybrid_7b())
///     .replicas(2)
///     .total_capacity_bytes(8 << 30)
///     .routing(RoutingPolicy::QueueAware)
///     .build();
/// let report = cluster.run(&trace);
/// assert_eq!(report.assignments.len(), trace.len());
/// ```
#[derive(Debug)]
pub struct EventCluster {
    pub(crate) replicas: Vec<Replica<HybridPrefixCache>>,
    pub(crate) router: Box<dyn Router>,
    pub(crate) gpu: GpuModel,
    pub(crate) batch: BatchConfig,
    pub(crate) tracer: Tracer,
}

impl EventCluster {
    /// Starts building an event-driven cluster for `model`.
    ///
    /// Defaults: 1 replica, 16 GiB total capacity, the cache's default
    /// (Marconi auto-tuned) eviction policy, queue-aware routing
    /// ([`QueueAware`](crate::QueueAware)), a modeled 4×A100 device per
    /// replica, default [`BatchConfig`].
    #[must_use]
    pub fn builder(model: ModelConfig) -> ClusterBuilder {
        ClusterBuilder::new(model)
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
        &self.replicas[index].cache
    }

    /// Attaches a tracer to the cluster layer's own decisions (routing
    /// choices with per-replica probes, queue admissions, batch-iteration
    /// boundaries, reload pricing). Replica caches stay untraced; trace a
    /// single-cache run for cache-level events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for replica in &mut self.replicas {
            replica.tracer = tracer.clone();
        }
        self.tracer = tracer;
    }

    /// Replays `trace` event-by-event across all replicas.
    ///
    /// Each arrival routes against live
    /// [`ReplicaStatus`](crate::ReplicaStatus)es — prefix probe plus
    /// *outstanding queued tokens* — then joins the winner's FIFO. Cache
    /// and cursor state persist across calls, but each call reports only
    /// its own requests.
    ///
    /// # Panics
    ///
    /// Panics if the router returns an out-of-range replica index, or if an
    /// arrival is not finite or precedes its predecessor's.
    pub fn run(&mut self, trace: &Trace) -> EventClusterReport {
        let before: Vec<CacheStats> = self.replicas.iter().map(|r| *r.cache.stats()).collect();
        let mut assignments = Vec::with_capacity(trace.len());
        let (router, tracer) = (&mut *self.router, &self.tracer);
        let replicas = drive(
            &mut self.replicas,
            &self.gpu,
            &self.batch,
            trace,
            |req, replicas, execs| {
                let loads = replicas
                    .iter()
                    .zip(execs)
                    .map(|(r, e)| (&r.cache, e.outstanding_tokens()));
                let idx = route(router, tracer, req, loads);
                assignments.push(idx);
                idx
            },
        );
        ClusterReport::new(self.router.name(), trace, replicas, &before, assignments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, RequestRecord, RoutingPolicy};
    use marconi_core::{
        AdmissionReport, CursorTable, EvictionPolicy, LookupResult, PinTicket, ReloadPolicy,
        SessionCursor,
    };
    use marconi_metrics::Percentiles;
    use marconi_trace::{RingRecorder, TraceEvent};
    use marconi_workload::{DatasetKind, Token, TraceGenerator};
    use std::sync::{Arc, Mutex};

    fn sharegpt(sessions: usize, seed: u64) -> Trace {
        TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(sessions)
            .seed(seed)
            .generate()
    }

    fn marconi_cache(capacity: u64, policy: EvictionPolicy) -> HybridPrefixCache {
        HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(capacity)
            .policy(policy)
            .build()
    }

    #[test]
    fn zero_load_parity_with_instantaneous_engine() {
        // THE parity contract: at infinite throughput and empty queues the
        // event simulator must reproduce the instantaneous Engine
        // byte-for-byte — identical CacheStats (including eviction counts
        // under contention) and identical per-request hit tokens — for
        // every eviction policy family.
        let trace = sharegpt(24, 2);
        for policy in [
            EvictionPolicy::Lru,
            EvictionPolicy::FlopAware { alpha: 2.0 },
            EvictionPolicy::default(), // Marconi auto-tuned
        ] {
            // 1 GB: far below the working set, so eviction decisions (and
            // therefore recency timestamps) matter.
            let capacity = 1 << 30;
            let mut engine =
                Engine::new(marconi_cache(capacity, policy.clone()), GpuModel::a100_x4());
            let expected = engine.run(&trace);
            let mut sim = EventSim::instantaneous(marconi_cache(capacity, policy.clone()));
            let got = sim.run(&trace);
            assert_eq!(
                got.cache_stats, expected.cache_stats,
                "{policy:?}: CacheStats must be byte-identical"
            );
            assert_eq!(got.records.len(), expected.records.len());
            for (e, g) in expected.records.iter().zip(&got.records) {
                assert_eq!(e.id, g.id, "{policy:?}: record order");
                assert_eq!(e.hit_tokens, g.hit_tokens, "{policy:?}: req {}", e.id);
                assert_eq!(e.raw_matched, g.raw_matched, "{policy:?}: req {}", e.id);
                assert_eq!(e.flops_saved, g.flops_saved, "{policy:?}: req {}", e.id);
                assert_eq!(e.flops_spent, g.flops_spent, "{policy:?}: req {}", e.id);
                assert_eq!(g.queue_ms, 0.0, "zero load means empty queues");
                assert_eq!(g.arrival, g.completed, "instantaneous completion");
            }
        }
    }

    /// A tiered, contended 4-replica cluster on the 8-tenant trace: every
    /// replica demotes and reloads.
    fn tiered_cluster(trace_seed: u64) -> (EventCluster, Trace) {
        let m = ModelConfig::hybrid_7b();
        let trace = TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(48)
            .tenants(8)
            .seed(trace_seed)
            .generate()
            .time_scaled(8.0);
        let cluster = EventCluster::builder(m.clone())
            .replicas(4)
            .total_capacity_bytes(4 * 6000 * m.kv_bytes_per_token())
            .total_host_capacity_bytes(64 << 30)
            .policy(EvictionPolicy::Lru)
            .build();
        (cluster, trace)
    }

    fn count_events(rec: &Arc<Mutex<RingRecorder>>, pick: impl Fn(&TraceEvent) -> bool) -> usize {
        let rec = rec.lock().expect("lock: test-local recorder");
        rec.events().filter(|e| pick(&e.event)).count()
    }

    #[test]
    fn traced_reloads_name_the_replica_that_reloaded() {
        // The label comes from the one admission step: `name[idx]` inside a
        // cluster (so a 4-replica trace can say which replica reloaded),
        // the plain cache name for a single-cache driver.
        let (mut cluster, trace) = tiered_cluster(23);
        let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(1 << 16));
        cluster.set_tracer(tracer);
        let report = cluster.run(&trace);
        let labels: std::collections::BTreeSet<Arc<str>> = recorder
            .lock()
            .expect("lock: test-local recorder")
            .events()
            .filter_map(|e| match &e.event {
                TraceEvent::Reload { cache, .. } => Some(cache.clone()),
                _ => None,
            })
            .collect();
        assert!(
            labels.len() >= 2,
            "reloads on several replicas must carry distinct labels: {labels:?}"
        );
        let systems: Vec<&str> = report.replicas.iter().map(|r| r.system.as_str()).collect();
        for label in &labels {
            assert!(
                systems.contains(&label.as_ref()),
                "{label} is not one of {systems:?}"
            );
        }

        let m = ModelConfig::hybrid_7b();
        let cache = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(6000 * m.kv_bytes_per_token())
            .host_capacity_bytes(16 << 30)
            .policy(EvictionPolicy::Lru)
            .build();
        let name: Arc<str> = cache.name().into();
        let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(1 << 16));
        let mut sim = EventSim::new(cache, GpuModel::a100_x4());
        sim.set_tracer(tracer);
        sim.run(&sharegpt(16, 7).time_scaled(4.0));
        let reloads = count_events(&recorder, |e| matches!(e, TraceEvent::Reload { .. }));
        let unlabelled = count_events(
            &recorder,
            |e| matches!(e, TraceEvent::Reload { cache, .. } if *cache == name),
        );
        assert!(reloads > 0, "the single-cache run must reload");
        assert_eq!(
            reloads, unlabelled,
            "a single cache reloads under its own name"
        );
    }

    /// At zero load a host hit is priced like any other, on the unbounded
    /// device: one `Reload` event per reloading request, every price +0.0,
    /// and the arm the record carries — the cache policy's own.
    #[test]
    fn zero_load_host_hits_trace_their_reloads_at_zero_seconds() {
        let m = ModelConfig::hybrid_7b();
        for policy in [ReloadPolicy::ComputeOrLoad, ReloadPolicy::AlwaysRecompute] {
            let cache = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(6000 * m.kv_bytes_per_token())
                .host_capacity_bytes(16 << 30)
                .policy(EvictionPolicy::Lru)
                .reload_policy(policy)
                .build();
            let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(1 << 16));
            let mut sim = EventSim::instantaneous(cache);
            sim.set_tracer(tracer);
            let report = sim.run(&sharegpt(16, 7));
            let recorded: Vec<_> = report
                .records
                .iter()
                .filter_map(|r| r.reload.map(|d| (r.reload_ms.to_bits(), d)))
                .collect();
            let traced: Vec<_> = recorder
                .lock()
                .expect("lock: test-local recorder")
                .events()
                .filter_map(|e| match e.event {
                    TraceEvent::Reload {
                        load_secs,
                        recompute_secs,
                        decision,
                        ..
                    } => {
                        assert_eq!((load_secs.to_bits(), recompute_secs.to_bits()), (0, 0));
                        Some((0, decision))
                    }
                    _ => None,
                })
                .collect();
            assert!(!recorded.is_empty(), "{policy}: the run must hit the host");
            assert_eq!(traced, recorded, "{policy}");
        }
    }

    #[test]
    fn session_cursors_survive_across_runs_under_every_driver() {
        // The cursor table lives beside the cache, not inside a per-run
        // executor: a second `run` resumes each session where the first
        // left it. The second run holds exactly one turn per session, so
        // every resume it records is a first turn spending a cursor the
        // *previous* run deposited.
        let trace = sharegpt(8, 4);
        let turn = |k: u32| Trace {
            name: format!("turn{k}"),
            requests: trace
                .requests
                .iter()
                .filter(|r| r.turn == k)
                .cloned()
                .collect(),
        };
        let (first, second) = (turn(0), turn(1));
        assert!(second.len() >= 4, "the trace must be multi-turn");
        let resumed = |rec: &Arc<Mutex<RingRecorder>>| {
            count_events(rec, |e| matches!(e, TraceEvent::CursorResumed { .. }))
        };
        let cache = || marconi_cache(1 << 40, EvictionPolicy::Lru);

        // The engine's cache is traced from the start; the resumes of the
        // first run are subtracted.
        let (tracer, rec) = Tracer::to_sink(RingRecorder::new(1 << 12));
        let mut traced = cache();
        traced.set_tracer(tracer);
        let mut engine = Engine::new(traced, GpuModel::a100_x4());
        let _ = engine.run(&first);
        let before = resumed(&rec);
        let _ = engine.run(&second);
        let engine_resumed = resumed(&rec) - before;
        assert!(engine_resumed >= second.len(), "Engine: {engine_resumed}");

        let (tracer, rec) = Tracer::to_sink(RingRecorder::new(1 << 12));
        let mut sim = EventSim::new(cache(), GpuModel::a100_x4());
        let _ = sim.run(&first);
        sim.replica.cache.set_tracer(tracer);
        let _ = sim.run(&second);
        assert!(resumed(&rec) >= second.len(), "EventSim: {}", resumed(&rec));

        let (tracer, rec) = Tracer::to_sink(RingRecorder::new(1 << 12));
        let mut cluster = EventCluster::builder(ModelConfig::hybrid_7b())
            .replicas(2)
            .total_capacity_bytes(1 << 40)
            .policy(EvictionPolicy::Lru)
            .routing(RoutingPolicy::PrefixAware)
            .build();
        let _ = cluster.run(&first);
        for replica in &mut cluster.replicas {
            replica.cache.set_tracer(tracer.clone());
        }
        let _ = cluster.run(&second);
        assert!(
            resumed(&rec) >= second.len(),
            "EventCluster: {}",
            resumed(&rec)
        );
    }

    #[test]
    fn cursor_capacity_zero_reproduces_the_default_reports() {
        // Hinted ≡ unhinted at the driver level: with the session fast path
        // disabled every request root-walks, and the reports — queueing
        // fields, reload arms, eviction counts — do not move.
        let trace = sharegpt(16, 7).time_scaled(4.0);
        let m = ModelConfig::hybrid_7b();
        let sim = |cursors: bool| {
            let cache = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(6000 * m.kv_bytes_per_token())
                .host_capacity_bytes(16 << 30)
                .build();
            let mut sim = EventSim::new(cache, GpuModel::a100_x4());
            if !cursors {
                sim.replica.cursors = CursorTable::new(0);
            }
            sim.run(&trace)
        };
        assert_eq!(sim(true), sim(false));

        let cluster = |cursors: bool| {
            let (mut cluster, trace) = tiered_cluster(23);
            if !cursors {
                for replica in &mut cluster.replicas {
                    replica.cursors = CursorTable::new(0);
                }
            }
            cluster.run(&trace)
        };
        assert_eq!(cluster(true), cluster(false));
    }

    #[test]
    fn event_runs_are_deterministic() {
        // Modeled mode is as deterministic as instantaneous mode: two runs
        // produce bit-identical reports (all-f64 fields included).
        let trace = sharegpt(10, 5).time_scaled(20.0);
        let run = || {
            let mut sim = EventSim::new(
                marconi_cache(4 << 30, EvictionPolicy::Lru),
                GpuModel::a100_x4(),
            );
            sim.run(&trace)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_load_modeled_ttft_matches_the_analytic_model() {
        // At negligible load (no queueing, whole prefill in one chunk) the
        // event TTFT degenerates to the engine's analytic
        // overhead + flops/throughput — the modeled service path is
        // calibrated, not merely ordered.
        let trace = sharegpt(4, 9).time_scaled(0.01); // ~100× sparser arrivals
        let gpu = GpuModel::a100_x4();
        let mut sim = EventSim::new(marconi_cache(1 << 40, EvictionPolicy::Lru), gpu.clone())
            .batch(BatchConfig {
                max_batch_requests: 16,
                prefill_chunk_tokens: u64::MAX >> 1,
            });
        let report = sim.run(&trace);
        let model = ModelConfig::hybrid_7b();
        for r in &report.records {
            assert_eq!(r.queue_ms, 0.0, "req {}: no queueing at zero load", r.id);
            let analytic = gpu.ttft_ms(&model, r.input_len, r.hit_tokens);
            assert!(
                (r.ttft_ms - analytic).abs() < 1e-6 * analytic,
                "req {}: event {} vs analytic {}",
                r.id,
                r.ttft_ms,
                analytic
            );
        }
        assert!(report.utilization() > 0.0 && report.utilization() < 0.2);
    }

    #[test]
    fn saturation_inflates_tail_latency_and_marconi_bends_the_curve() {
        // The acceptance assertion: above device throughput, queueing
        // delay dominates — P95 TTFT under the event sim strictly exceeds
        // the zero-load analytic P95 — and Marconi's prefix reuse removes
        // enough prefill work that its P95 stays strictly below vanilla's
        // on the same contended trace.
        let trace = sharegpt(16, 7).time_scaled(40.0);
        let gpu = GpuModel::a100_x4();
        let model = ModelConfig::hybrid_7b();

        // The trace must genuinely exceed capacity without caching.
        let offered_flops: u128 = trace
            .requests
            .iter()
            .map(|r| model.prefill_flops(r.input_len()).total())
            .sum();
        let offered_rate = offered_flops as f64 / trace.duration();
        assert!(
            offered_rate > gpu.effective_flops(),
            "trace must saturate the device: offered {offered_rate:.3e} vs {:.3e}",
            gpu.effective_flops()
        );

        let p95 = |report: &EventReport| report.ttft_percentile_ms(0.95).unwrap();

        let mut marconi = EventSim::new(marconi_cache(1 << 40, EvictionPolicy::Lru), gpu.clone());
        let marconi_report = marconi.run(&trace);
        let mut vanilla = EventSim::new(crate::vanilla(model), gpu.clone());
        let vanilla_report = vanilla.run(&trace);

        // Zero-load analytic P95 on the identical cache configuration.
        let mut engine = Engine::new(marconi_cache(1 << 40, EvictionPolicy::Lru), gpu);
        let zero_load_p95 = engine.run(&trace).ttft_percentile_ms(0.95).unwrap();

        assert!(
            p95(&marconi_report) > zero_load_p95,
            "saturation must inflate the tail: event {} vs zero-load {}",
            p95(&marconi_report),
            zero_load_p95
        );
        assert!(
            p95(&marconi_report) < p95(&vanilla_report),
            "prefix caching must bend the latency curve: marconi {} vs vanilla {}",
            p95(&marconi_report),
            p95(&vanilla_report)
        );
        // Queueing is the mechanism: delays are non-trivial under overload.
        assert!(
            Percentiles::new(&marconi_report.queue_delays_ms())
                .unwrap()
                .p95()
                > 0.0,
            "saturated runs must queue"
        );
    }

    #[test]
    fn completion_time_insertion_changes_what_the_cache_sees() {
        // The semantic point of the event layer: under load, a request
        // arriving before an earlier identical-prefix request *completes*
        // cannot hit on it — the instantaneous engine (insertion at
        // arrival) overstates reuse.
        use marconi_workload::Request;
        let first_input: Vec<u32> = (0..4000).collect();
        let output: Vec<u32> = (50_000..50_008).collect();
        // A conversation resume: request 1 extends request 0's full
        // sequence, so its prefix ends exactly on the SSM checkpoint
        // admitted at request 0's last decoded token.
        let mut resume = first_input.clone();
        resume.extend_from_slice(&output);
        resume.extend(60_000..60_040);
        let mk = |id, arrival, input: &[u32]| Request {
            id,
            session_id: 0,
            tenant_id: 0,
            turn: id as u32,
            arrival,
            input: input.to_vec(),
            output: output.clone(),
        };
        // Request 1 arrives 1 ms after request 0 — far sooner than
        // request 0's ~100 ms service time.
        let trace = Trace {
            name: "overlap".into(),
            requests: vec![mk(0, 0.0, &first_input), mk(1, 0.001, &resume)],
        };
        let mut engine = Engine::new(
            marconi_cache(1 << 40, EvictionPolicy::Lru),
            GpuModel::a100_x4(),
        );
        let eng = engine.run(&trace);
        assert!(
            eng.records[1].hit_tokens > 0,
            "engine's oracle ordering grants the second request a hit"
        );
        let mut sim = EventSim::new(
            marconi_cache(1 << 40, EvictionPolicy::Lru),
            GpuModel::a100_x4(),
        );
        let evt = sim.run(&trace);
        assert_eq!(
            evt.records[1].hit_tokens, 0,
            "under load the prefix is not yet cached when request 1 is admitted"
        );
    }

    #[test]
    fn batch_slots_bound_concurrency_and_free_mid_batch() {
        // With one slot, requests serialize: each admission waits for the
        // previous completion (slot freed mid-trace), so queue delays grow
        // monotonically under simultaneous pressure.
        let trace = sharegpt(6, 3).time_scaled(1000.0); // near-simultaneous arrivals
        let mut sim = EventSim::new(
            marconi_cache(1 << 40, EvictionPolicy::Lru),
            GpuModel::a100_x4(),
        )
        .batch(BatchConfig {
            max_batch_requests: 1,
            prefill_chunk_tokens: 4096,
        });
        let report = sim.run(&trace);
        // Serialized: no two requests overlap, so total busy time ≈
        // makespan and utilization is ~1.
        assert!(
            report.utilization() > 0.95,
            "serialized overload should pin the device: {}",
            report.utilization()
        );
        let delays = report.queue_delays_ms();
        assert!(delays.last().unwrap() > &delays[1], "queue builds up");
    }

    #[test]
    fn goodput_and_slo_attainment_degrade_with_load() {
        let base = sharegpt(12, 13);
        let run = |mult: f64| {
            let mut sim = EventSim::new(
                marconi_cache(1 << 40, EvictionPolicy::Lru),
                GpuModel::a100_x4(),
            );
            sim.run(&base.time_scaled(mult))
        };
        let light = run(0.1);
        let heavy = run(50.0);
        let slo_ms = 2.0 * light.ttft_percentile_ms(0.95).unwrap();
        assert!(light.slo_attainment(slo_ms).unwrap() >= 0.95);
        assert!(
            heavy.slo_attainment(slo_ms).unwrap() < light.slo_attainment(slo_ms).unwrap(),
            "overload must hurt SLO attainment"
        );
        assert!(heavy.utilization() > light.utilization());
    }

    #[test]
    fn queue_aware_routing_beats_blind_prefix_affinity_under_hot_spots() {
        // Two replicas, one tenant's prompt hot: pure prefix affinity
        // funnels everything to one queue, queue-aware routing spills to
        // the idle replica once the depth tie-breaker kicks in. At minimum
        // the router must be deterministic and spread load no worse.
        let trace = TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(12)
            .tenants(2)
            .seed(19)
            .generate()
            .time_scaled(30.0);
        let run = |routing: RoutingPolicy| {
            let mut c = EventCluster::builder(ModelConfig::hybrid_7b())
                .replicas(2)
                .total_capacity_bytes(8 << 30)
                .policy(EvictionPolicy::Lru)
                .routing(routing)
                .build();
            c.run(&trace)
        };
        let qa = run(RoutingPolicy::QueueAware);
        let qa2 = run(RoutingPolicy::QueueAware);
        assert_eq!(qa, qa2, "queue-aware routing must be deterministic");
        let p95 = |r: &EventClusterReport| Percentiles::new(&r.ttfts_ms()).unwrap().quantile(0.95);
        let pa = run(RoutingPolicy::PrefixAware);
        assert!(
            p95(&qa) <= p95(&pa) * 1.001,
            "queue awareness must not worsen tail latency: qa {} vs pa {}",
            p95(&qa),
            p95(&pa)
        );
        assert_eq!(qa.assignments.len(), trace.len());
        assert!(qa.ttft_summary().is_some());
    }

    #[test]
    fn compute_or_load_p95_never_exceeds_recompute_only() {
        // The acceptance assertion for the tiered event path: on a
        // contended trace whose device tier demotes aggressively, the
        // compute-or-load rule (min of transfer and recompute per request)
        // yields a P95 TTFT no worse than forcing every host hit through
        // recompute — and the host tier actually carries traffic.
        let trace = sharegpt(16, 7).time_scaled(4.0);
        let m = ModelConfig::hybrid_7b();
        let capacity = 6000 * m.kv_bytes_per_token();
        let run = |policy: ReloadPolicy| {
            let cache = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(capacity)
                .host_capacity_bytes(16 << 30)
                .policy(EvictionPolicy::Lru)
                .reload_policy(policy)
                .build();
            let mut sim = EventSim::new(cache, GpuModel::a100_x4());
            sim.run(&trace)
        };
        let col = run(ReloadPolicy::ComputeOrLoad);
        let recompute_only = run(ReloadPolicy::AlwaysRecompute);
        assert!(
            col.cache_stats.demotions > 0 && col.cache_stats.host_hit_tokens > 0,
            "the trace must exercise the host tier: {:?} demotions",
            col.cache_stats.demotions
        );
        assert!(col.total_reload_ms() > 0.0, "reloads must be charged");
        assert!(
            col.records
                .iter()
                .any(|r| r.reload == Some(marconi_trace::ReloadDecision::Load)),
            "PCIe transfers must win for long prefixes"
        );
        let p95_col = col.ttft_percentile_ms(0.95).unwrap();
        let p95_rec = recompute_only.ttft_percentile_ms(0.95).unwrap();
        assert!(
            p95_col <= p95_rec * (1.0 + 1e-9),
            "compute-or-load P95 {p95_col} must not exceed recompute-only {p95_rec}"
        );
    }

    #[test]
    fn zero_load_reload_charge_matches_the_analytic_model() {
        // One demoted entry, one sparse follow-up: the event TTFT must be
        // exactly the analytic uncached-prefill TTFT plus the reload
        // charge the GpuModel computes for the hit's host share.
        let m = ModelConfig::hybrid_7b();
        let capacity = 2 * (2048 + 32) * m.kv_bytes_per_token() + 2 * m.ssm_checkpoint_bytes() + 1;
        let cache = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(capacity)
            .host_capacity_bytes(1 << 40)
            .policy(EvictionPolicy::Lru)
            .reload_policy(ReloadPolicy::ComputeOrLoad)
            .build();
        let gpu = GpuModel::a100_x4();
        let mut sim = EventSim::new(cache, gpu.clone()).batch(BatchConfig {
            max_batch_requests: 16,
            prefill_chunk_tokens: u64::MAX >> 1,
        });
        let mk = |id, arrival, input: Vec<u32>, out_base: u32| marconi_workload::Request {
            id,
            session_id: id,
            tenant_id: 0,
            turn: 0,
            arrival,
            input,
            output: (out_base..out_base + 32).collect(),
        };
        // A is admitted, then demoted by B and C's pressure; A's resume
        // arrives much later (no queueing).
        let a: Vec<u32> = (0..2048).collect();
        let mut resume = a.clone();
        resume.extend(500_000..500_032); // A's decoded output
        resume.extend(600_000..600_040);
        let trace = Trace {
            name: "reload".into(),
            requests: vec![
                mk(0, 0.0, a, 500_000),
                mk(1, 10.0, (100_000..102_048).collect(), 510_000),
                mk(2, 20.0, (200_000..202_048).collect(), 520_000),
                mk(3, 30.0, resume, 530_000),
            ],
        };
        let report = sim.run(&trace);
        let r = &report.records[3];
        assert_eq!(r.hit_tokens, 2080, "the resume hits A's full sequence");
        assert_eq!(r.host_hit_tokens, 2080, "served entirely from host");
        assert!(r.reload_ms > 0.0);
        let host_bytes = 2080 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
        let host_flops = m.prefill_flops(2080).total();
        let (reload_s, _) = gpu.reload_secs(ReloadPolicy::ComputeOrLoad, host_bytes, host_flops);
        let analytic = gpu.ttft_ms(&m, r.input_len, r.hit_tokens) + reload_s * 1e3;
        assert!(
            (r.ttft_ms - analytic).abs() < 1e-6 * analytic,
            "event {} vs analytic {}",
            r.ttft_ms,
            analytic
        );
    }

    #[test]
    fn cache_state_persists_across_runs() {
        let trace = sharegpt(4, 21);
        let mut sim = EventSim::instantaneous(marconi_cache(1 << 40, EvictionPolicy::Lru));
        let first = sim.run(&trace);
        let second = sim.run(&trace);
        assert_eq!(first.records.len(), second.records.len());
        // `cache_stats` is cumulative (like `Engine`): the second run must
        // add hits on the warm cache and never dilute the rate.
        assert!(
            second.cache_stats.hit_tokens > first.cache_stats.hit_tokens,
            "an identical replay against the warm cache must keep hitting"
        );
        assert!(second.token_hit_rate() >= first.token_hit_rate());
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let trace = Trace {
            name: "empty".into(),
            requests: vec![],
        };
        let mut sim = EventSim::new(
            marconi_cache(1 << 30, EvictionPolicy::Lru),
            GpuModel::a100_x4(),
        );
        let report = sim.run(&trace);
        assert!(report.records.is_empty());
        assert_eq!(report.utilization(), 0.0);
        assert!(report.ttft_summary().is_none());
    }

    /// Two one-turn requests arriving at `first` and `second`.
    fn two_arrivals(first: f64, second: f64) -> Trace {
        let mk = |id: u64, arrival| Request {
            id,
            session_id: id,
            tenant_id: 0,
            turn: 0,
            arrival,
            input: (0..64).map(|t| t + 1000 * id as u32).collect(),
            output: (0..8).collect(),
        };
        Trace {
            name: "arrivals".into(),
            requests: vec![mk(0, first), mk(1, second)],
        }
    }

    fn run_sim(trace: &Trace) -> EventReport {
        EventSim::new(
            marconi_cache(1 << 30, EvictionPolicy::Lru),
            GpuModel::a100_x4(),
        )
        .run(trace)
    }

    #[test]
    #[should_panic(expected = "arrival of request 1 is not finite")]
    fn nan_arrival_rejected() {
        let _ = run_sim(&two_arrivals(0.0, f64::NAN));
    }

    #[test]
    #[should_panic(expected = "arrival of request 1 is not finite")]
    fn infinite_arrival_rejected() {
        let _ = run_sim(&two_arrivals(0.0, f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "arrival of request 1 at 0.5 precedes its predecessor's at 1")]
    fn decreasing_arrival_rejected() {
        let _ = run_sim(&two_arrivals(1.0, 0.5));
    }

    fn run_engine(trace: &Trace) -> SimReport {
        Engine::new(
            marconi_cache(1 << 30, EvictionPolicy::Lru),
            GpuModel::a100_x4(),
        )
        .run(trace)
    }

    #[test]
    #[should_panic(expected = "arrival of request 1 is not finite")]
    fn engine_rejects_nan_arrival() {
        let _ = run_engine(&two_arrivals(0.0, f64::NAN));
    }

    #[test]
    #[should_panic(expected = "arrival of request 1 is not finite")]
    fn engine_rejects_infinite_arrival() {
        let _ = run_engine(&two_arrivals(0.0, f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "arrival of request 1 at 0.5 precedes its predecessor's at 1")]
    fn engine_rejects_decreasing_arrival() {
        let _ = run_engine(&two_arrivals(1.0, 0.5));
    }

    #[test]
    fn equal_arrivals_are_in_order() {
        assert_eq!(run_sim(&two_arrivals(0.25, 0.25)).records.len(), 2);
        assert_eq!(run_engine(&two_arrivals(0.25, 0.25)).records.len(), 2);
    }

    /// Duplicate request ids are tolerated: an id only labels a record.
    /// Every driver serves each request once, with the outcome it gets
    /// under distinct ids. Records are sorted by id, so two requests that
    /// share one sit in completion order, not arrival order; a record's
    /// `arrival` names its request.
    #[test]
    fn duplicate_request_ids_are_served_once_each() {
        let distinct = sharegpt(16, 7).time_scaled(40.0);
        let mut shared = distinct.clone();
        shared.requests.iter_mut().for_each(|r| r.id /= 2);
        let cache = || marconi_cache(1 << 30, EvictionPolicy::Lru);
        let engine = |t: &Trace| Engine::new(cache(), GpuModel::a100_x4()).run(t).records;
        let sim = |t: &Trace| EventSim::new(cache(), GpuModel::a100_x4()).run(t).records;
        let cluster = |t: &Trace| {
            EventCluster::builder(ModelConfig::hybrid_7b())
                .replicas(2)
                .total_capacity_bytes(2 << 30)
                .policy(EvictionPolicy::Lru)
                .build()
                .run(t)
        };
        let clusters = (cluster(&distinct), cluster(&shared));
        let flat = |r: &ClusterReport| -> Vec<RequestRecord> {
            r.replicas.iter().flat_map(|s| s.records.clone()).collect()
        };
        // What each request got, in arrival order, its id blanked.
        let outcomes = |records: Vec<RequestRecord>| {
            let mut v: Vec<_> = records
                .iter()
                .map(|r| RequestRecord { id: 0, ..*r })
                .collect();
            v.sort_by(|a, b| {
                (a.arrival.total_cmp(&b.arrival)).then(a.session_id.cmp(&b.session_id))
            });
            v
        };
        let runs = [
            ("Engine", engine(&distinct), engine(&shared)),
            ("EventSim", sim(&distinct), sim(&shared)),
            ("EventCluster", flat(&clusters.0), flat(&clusters.1)),
        ];
        for (driver, expected, got) in runs {
            assert_eq!(
                got.len(),
                shared.len(),
                "{driver}: each request served once"
            );
            assert_eq!(
                outcomes(got),
                outcomes(expected),
                "{driver}: outcomes by request"
            );
        }
        let loaded = sim(&shared);
        let swapped = loaded
            .windows(2)
            .filter(|w| w[0].id == w[1].id && w[0].arrival > w[1].arrival);
        assert!(
            swapped.count() > 0,
            "the loaded run completes some pair out of arrival order"
        );
        let ttfts = |r: &ClusterReport| {
            let mut t = r.ttfts_ms();
            t.sort_by(f64::total_cmp);
            t
        };
        assert_eq!(
            ttfts(&clusters.1),
            ttfts(&clusters.0),
            "every request's TTFT, once"
        );
    }

    /// Segmentation never depends on the tracer: a cluster recording every
    /// replica's batch events reports exactly what the untraced run reports,
    /// and each replica's `BatchIteration`s number its segments' first
    /// iterations — strictly increasing, within the report's count, and
    /// fewer than the iterations they cover.
    #[test]
    fn recording_changes_nothing_a_segmented_cluster_reports() {
        let (mut untraced, trace) = tiered_cluster(23);
        let expected = untraced.run(&trace);
        let (mut cluster, _) = tiered_cluster(23);
        let (tracer, _routing) = Tracer::to_sink(RingRecorder::new(1 << 16));
        cluster.set_tracer(tracer);
        let recorders: Vec<_> = cluster
            .replicas
            .iter_mut()
            .map(|replica| {
                let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(1 << 16));
                replica.tracer = tracer;
                recorder
            })
            .collect();
        let got = cluster.run(&trace);
        assert_eq!(got, expected, "a live recorder must not move the report");
        for (i, (recorder, report)) in recorders.iter().zip(&got.replicas).enumerate() {
            let rec = recorder.lock().expect("lock: test-local recorder");
            assert_eq!(rec.dropped(), 0);
            let firsts: Vec<u64> = rec
                .events()
                .filter_map(|e| match e.event {
                    TraceEvent::BatchIteration { iteration, .. } => Some(iteration),
                    _ => None,
                })
                .collect();
            assert!(!firsts.is_empty(), "replica {i} ran nothing");
            assert!(
                firsts.windows(2).all(|w| w[0] < w[1]),
                "replica {i}: iteration numbers must strictly increase"
            );
            let last = firsts[firsts.len() - 1];
            assert!(
                last <= report.iterations,
                "replica {i}: {last} is past the report"
            );
            assert!(
                (firsts.len() as u64) < report.iterations,
                "replica {i}: decode segments must span several iterations"
            );
        }
    }

    #[test]
    #[should_panic(expected = "batch slot")]
    fn zero_slot_batch_rejected() {
        let _ = EventSim::new(
            marconi_cache(1 << 30, EvictionPolicy::Lru),
            GpuModel::a100_x4(),
        )
        .batch(BatchConfig {
            max_batch_requests: 0,
            prefill_chunk_tokens: 1,
        });
    }

    /// Builds the PR 6 mid-decode eviction scenario: session A's chain is
    /// resumed by a long-decoding request while three completing pressure
    /// chains overflow the byte budget, and two probes read which chain
    /// survived before the decode finishes. Returns the model, the byte
    /// capacity that forces exactly one chain out, and the trace. Shared by
    /// the pinning test below and the PR 9 miss-attribution test.
    fn mid_flight_scenario() -> (ModelConfig, u64, Trace) {
        use marconi_workload::Request;
        let m = ModelConfig::hybrid_7b();
        let a_in: Vec<u32> = (0..96).collect();
        let a_out: Vec<u32> = (500..532).collect();
        let mut resume_a = a_in.clone();
        resume_a.extend_from_slice(&a_out);
        resume_a.extend(2000..2020);
        let mk = |id, arrival, input: Vec<u32>, output: Vec<u32>| Request {
            id,
            session_id: id,
            tenant_id: 0,
            turn: 0,
            arrival,
            input,
            output,
        };
        let pressure_seq = |base: u32| {
            (
                (base..base + 96).collect(),
                (base + 500..base + 504).collect(),
            )
        };
        // Session A's chain: 128 tokens + checkpoint. Pressure chains
        // (96 in + 4 out): 100 tokens + checkpoint. Capacity fits A plus
        // two pressure chains; the third completion must evict one chain.
        let capacity = (128 + 2 * 100) * m.kv_bytes_per_token() + 3 * m.ssm_checkpoint_bytes() + 1;

        // Calibrate the decode window: how long request 1 (the in-flight
        // victim-to-be, with a 4000-token decode) stays resident when run
        // alone, so arrivals can be placed *inside* that window without
        // hardcoding iteration latencies.
        let calibrate = {
            let trace = Trace {
                name: "calibrate".into(),
                requests: vec![
                    mk(0, 0.0, a_in.clone(), a_out.clone()),
                    mk(1, 1.0, resume_a.clone(), (40_000..44_000).collect()),
                ],
            };
            let mut sim = EventSim::new(
                marconi_cache(1 << 40, EvictionPolicy::Lru),
                GpuModel::a100_x4(),
            );
            let rep = sim.run(&trace);
            rep.records[1].completed - rep.records[1].admitted
        };
        assert!(calibrate > 0.0);

        let (c1_in, c1_out): (Vec<u32>, Vec<u32>) = pressure_seq(10_000);
        let mut resume_c1 = c1_in.clone();
        resume_c1.extend_from_slice(&c1_out);
        let (c2_in, c2_out) = pressure_seq(20_000);
        let (c3_in, c3_out) = pressure_seq(30_000);
        let t0 = 1.0;
        let trace = Trace {
            name: "mid-flight".into(),
            requests: vec![
                // 0: establishes session A's cached chain.
                mk(0, 0.0, a_in.clone(), a_out.clone()),
                // 1: resumes A and decodes for a long time — its admission
                // lookup hits A's 128-token checkpoint.
                mk(1, t0, resume_a.clone(), (40_000..44_000).collect()),
                // 2–4: pressure — each completion admits a fresh chain;
                // the third overflows the byte budget mid-flight of 1.
                mk(2, t0 + 0.05 * calibrate, c1_in, c1_out.clone()),
                mk(3, t0 + 0.10 * calibrate, c2_in, c2_out),
                mk(4, t0 + 0.15 * calibrate, c3_in, c3_out),
                // 5–6: probes landing after the pressure but before 1
                // completes, reading which chain survived.
                mk(
                    5,
                    t0 + 0.90 * calibrate,
                    resume_a.clone(),
                    (600..604).collect(),
                ),
                mk(6, t0 + 0.92 * calibrate, resume_c1, (700..704).collect()),
            ],
        };
        (m, capacity, trace)
    }

    /// A cache that never pins: every method but the pin family forwards to
    /// the wrapped cache, and the pin family hands out empty tickets. The
    /// pre-pinning reference the mid-flight tests compare against.
    struct Unpinned(HybridPrefixCache);

    impl PrefixCache for Unpinned {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn model(&self) -> &ModelConfig {
            self.0.model()
        }

        fn lookup_at(&mut self, input: &[Token], now: f64) -> LookupResult {
            self.0.lookup_at(input, now)
        }

        fn longest_cached_prefix_len(&self, input: &[Token]) -> u64 {
            self.0.longest_cached_prefix_len(input)
        }

        fn insert_at(&mut self, input: &[Token], output: &[Token], now: f64) -> AdmissionReport {
            self.0.insert_at(input, output, now)
        }

        fn stats(&self) -> &CacheStats {
            self.0.stats()
        }

        fn usage_bytes(&self) -> u64 {
            self.0.usage_bytes()
        }

        fn capacity_bytes(&self) -> u64 {
            self.0.capacity_bytes()
        }

        fn reload_policy(&self) -> ReloadPolicy {
            self.0.reload_policy()
        }

        fn lookup_at_with(
            &mut self,
            input: &[Token],
            now: f64,
            hint: Option<SessionCursor>,
        ) -> LookupResult {
            self.0.lookup_at_with(input, now, hint)
        }

        fn insert_at_with(
            &mut self,
            input: &[Token],
            output: &[Token],
            now: f64,
            hint: Option<SessionCursor>,
        ) -> (AdmissionReport, Option<SessionCursor>) {
            self.0.insert_at_with(input, output, now, hint)
        }

        fn pin_prefix(&mut self, _input: &[Token]) -> PinTicket {
            PinTicket::default()
        }

        fn pin_prefix_with(&mut self, _input: &[Token], _hint: Option<SessionCursor>) -> PinTicket {
            PinTicket::default()
        }

        fn unpin(&mut self, _ticket: PinTicket) {}

        fn pinned_bytes(&self) -> u64 {
            0
        }
    }

    /// The headline bug PR 6 fixes, demonstrated end-to-end under the
    /// modeled clock: a long-decoding request's admission-time hit path is
    /// reclaimed by eviction pressure from concurrently *completing*
    /// requests — unless the admission lookup pins it. The two runs
    /// diverge exactly (and only) at that victim choice: unpinned,
    /// pressure takes the in-flight path; pinned, it takes the next-best
    /// victim instead.
    #[test]
    fn mid_flight_eviction_is_prevented_by_pinning() {
        let (m, capacity, trace) = mid_flight_scenario();
        let run = |pin: bool| {
            let cache = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(capacity)
                .policy(EvictionPolicy::Lru)
                .build();
            let rep = if pin {
                EventSim::new(cache, GpuModel::a100_x4()).run(&trace)
            } else {
                EventSim::new(Unpinned(cache), GpuModel::a100_x4()).run(&trace)
            };
            // Self-validate the overlap the scenario depends on: all the
            // pressure completed, and both probes were admitted, while
            // request 1 was still decoding.
            let r = &rep.records;
            assert!(
                r[4].completed < r[5].admitted,
                "pressure must land before the probes"
            );
            assert!(
                r[6].admitted < r[1].completed,
                "probes must observe the mid-flight state"
            );
            assert_eq!(r[1].hit_tokens, 128, "request 1 hit A's checkpoint");
            rep
        };

        let unpinned = run(false);
        let pinned = run(true);
        // Unpinned: pressure reclaimed the chain request 1 was decoding
        // from (a use-after-free in a real engine); the bystander chain
        // survived.
        assert_eq!(unpinned.records[5].hit_tokens, 0, "in-flight path evicted");
        assert_eq!(unpinned.records[6].hit_tokens, 100, "bystander survived");
        // Pinned: the victim choice diverges exactly there — the pinned
        // in-flight path survives and pressure takes the bystander.
        assert_eq!(pinned.records[5].hit_tokens, 128, "in-flight path pinned");
        assert_eq!(pinned.records[6].hit_tokens, 0, "next-best victim taken");
        // ... and nowhere else: both runs reclaim under the same pressure.
        assert!(unpinned.cache_stats.evictions > 0);
        assert_eq!(
            unpinned.cache_stats.evictions, pinned.cache_stats.evictions,
            "pinning redirects victims, it does not change how much pressure reclaims"
        );
        // All pins were redeemed at completion.
        assert_eq!(pinned.cache_stats.lookups, unpinned.cache_stats.lookups);
    }

    /// PR 9: the flight recorder tells the two mid-flight outcomes apart
    /// by miss cause. Unpinned, probe 5's miss is `capacity-evicted` (its
    /// prefix was reclaimed by ordinary pressure); pinned, the eviction
    /// routes around the pinned chain and probe 6's miss is
    /// `pinned-bystander` — the taxonomy localizes PR 6's bug class from
    /// the trace alone.
    #[test]
    fn mid_flight_misses_are_attributed() {
        use marconi_trace::MissCause;
        let (m, capacity, trace) = mid_flight_scenario();
        let run = |pin: bool| {
            let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(1 << 14));
            let mut cache = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(capacity)
                .policy(EvictionPolicy::Lru)
                .build();
            cache.set_tracer(tracer);
            if pin {
                EventSim::new(cache, GpuModel::a100_x4()).run(&trace);
            } else {
                EventSim::new(Unpinned(cache), GpuModel::a100_x4()).run(&trace);
            }
            recorder
        };
        // The probes are the only lookups with (their input length, zero
        // matched tokens): request 1 resumes the same 148 tokens as probe 5
        // but hits the still-cached chain.
        let attribution =
            |rec: &std::sync::Arc<std::sync::Mutex<RingRecorder>>, len: u64| -> Option<MissCause> {
                let rec = rec.lock().expect("lock: test-local recorder");
                let mut found = rec.events().filter_map(|e| match e.event {
                    TraceEvent::Lookup {
                        input_len,
                        matched: 0,
                        attribution,
                        ..
                    } if input_len == len => Some(attribution),
                    _ => None,
                });
                let att = found
                    .next()
                    .expect("invariant: the probe's miss must be traced");
                assert_eq!(found.next(), None, "exactly one missing lookup of {len}");
                att
            };
        let unpinned = run(false);
        assert_eq!(
            attribution(&unpinned, 148),
            Some(MissCause::CapacityEvicted),
            "unpinned: the in-flight chain was taken by ordinary capacity pressure"
        );
        let pinned = run(true);
        assert_eq!(
            attribution(&pinned, 100),
            Some(MissCause::PinnedBystander),
            "pinned: the bystander chain was evicted while a pin diverted pressure"
        );
    }
}
