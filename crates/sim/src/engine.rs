//! The serving step, and the analytic replay engine built on it.
//!
//! Every driver in this crate serves a request the same way: [`Replica::admit`]
//! looks up the longest reusable prefix and prices the reload of its
//! host-resident share; [`Replica::complete`] admits the full sequence and
//! builds the record. The two service disciplines differ only in *when*
//! they call the pair: the analytic [`Engine`] calls both at the request's
//! arrival and prices TTFT in closed form; the batched
//! [`executor`](crate::BatchConfig) calls `admit` when a batch slot frees
//! and `complete` when the last decode token finishes.

use crate::gpu::GpuModel;
use crate::report::{RequestRecord, SimReport};
use marconi_core::{CursorTable, LookupResult, PinTicket, PrefixCache, SessionCursor};
use marconi_trace::{ReloadDecision, TraceEvent, Tracer};
use marconi_workload::{Request, Trace};
use std::sync::Arc;

/// Bound on a replica's per-session cursor table. Far above any generated
/// trace's session count, yet keeps pathological session-id churn from
/// growing the table without bound.
const SESSION_CURSOR_CAP: usize = 4096;

/// One cache as the serving layer holds it: the cache, the per-session
/// resume cursors kept beside it (they live exactly as long as the tree
/// they point into, across `run` calls), and the label and tracer its
/// serving decisions are recorded under.
#[derive(Debug)]
pub(crate) struct Replica<C> {
    pub(crate) cache: C,
    pub(crate) tracer: Tracer,
    /// The PR 10 fast path: each completion deposits the cursor its insert
    /// minted, and the session's next admission spends it on the lookup,
    /// the pin and the insert, so all three resume from the deep node in
    /// O(new tokens).
    pub(crate) cursors: CursorTable,
    /// The cache's name; `name[index]` inside a cluster.
    label: Arc<str>,
}

/// What [`Replica::admit`] decided for one request, held until
/// [`Replica::complete`].
#[derive(Debug)]
pub(crate) struct Admitted {
    pub(crate) hit: LookupResult,
    /// Latency charged for the host-resident share of the hit
    /// (compute-or-load), and the arm that produced it.
    pub(crate) reload_s: f64,
    reload: Option<ReloadDecision>,
    /// The session hint taken at admission, re-spent on the completion
    /// insert. The insert revalidates it — anything that happened to the
    /// resume path while the request was in flight makes it fall back to
    /// the byte-identical root walk.
    cursor: Option<SessionCursor>,
    /// In-flight pin on the hit path, when the request is held across
    /// virtual time: eviction pressure from concurrent completions must not
    /// reclaim KVs this request is still reading.
    pin: Option<PinTicket>,
}

impl<C: PrefixCache> Replica<C> {
    /// Wraps `cache`; `index` is its position in a cluster, if any.
    pub(crate) fn new(cache: C, index: Option<usize>) -> Self {
        let label = match index {
            Some(i) => format!("{}[{i}]", cache.name()),
            None => cache.name().to_owned(),
        };
        Replica {
            cache,
            tracer: Tracer::off(),
            cursors: CursorTable::new(SESSION_CURSOR_CAP),
            label: label.into(),
        }
    }

    /// Admits `req` at `now`: looks up the longest reusable prefix (pinning
    /// it when the request will be held in flight) and prices the reload of
    /// its host-resident share on `gpu` under the cache's
    /// [`ReloadPolicy`](marconi_core::ReloadPolicy).
    pub(crate) fn admit(
        &mut self,
        req: &Request,
        now: f64,
        gpu: &GpuModel,
        hold: bool,
    ) -> Admitted {
        let cursor = self.cursors.take(req.session_id);
        let hit = self.cache.lookup_at_with(&req.input, now, cursor);
        let pin = hold.then(|| self.cache.pin_prefix_with(&req.input, cursor));
        let (reload_s, reload) = gpu.reload_secs(
            self.cache.reload_policy(),
            hit.host_bytes,
            hit.host_reload_flops,
        );
        if let Some(decision) = reload {
            self.tracer.emit(|| TraceEvent::Reload {
                ts: now,
                cache: self.label.clone(),
                host_bytes: hit.host_bytes,
                load_secs: gpu.transfer_secs(hit.host_bytes),
                recompute_secs: gpu.secs_for_flops(hit.host_reload_flops),
                decision,
            });
        }
        Admitted {
            hit,
            reload_s,
            reload,
            cursor,
            pin,
        }
    }

    /// Completes `req` at `now`: admits the full sequence into the cache
    /// and builds the record. `admitted` is when [`admit`](Replica::admit)
    /// ran; `ttft_ms` is the discipline's own pricing.
    pub(crate) fn complete(
        &mut self,
        req: &Request,
        adm: Admitted,
        admitted: f64,
        ttft_ms: f64,
        now: f64,
    ) -> RequestRecord {
        // Release the pin *before* admitting the completed sequence: the
        // request is done reading its prefix, and a still-held pin would
        // exempt that path from the admission's own eviction pressure
        // (breaking pin-free parity even at zero load).
        if let Some(pin) = adm.pin {
            self.cache.unpin(pin);
        }
        let (_, next) = self
            .cache
            .insert_at_with(&req.input, &req.output, now, adm.cursor);
        if let Some(cursor) = next {
            self.cursors.put(req.session_id, cursor);
        }
        let hit = adm.hit;
        RequestRecord {
            id: req.id,
            session_id: req.session_id,
            arrival: req.arrival,
            admitted,
            completed: now,
            input_len: req.input_len(),
            hit_tokens: hit.tokens_matched,
            host_hit_tokens: hit.host_tokens,
            raw_matched: hit.raw_matched,
            queue_ms: (admitted - req.arrival) * 1e3,
            ttft_ms,
            e2e_ms: (now - req.arrival) * 1e3,
            reload_ms: adm.reload_s * 1e3,
            reload: adm.reload,
            flops_spent: self
                .cache
                .model()
                .prefill_flops_with_prefix(req.input_len(), hit.tokens_matched),
            flops_saved: hit.flops_saved,
        }
    }

    /// The report of one run's `records` on this replica, with the cache's
    /// cumulative statistics.
    pub(crate) fn report(
        &self,
        trace: &Trace,
        records: Vec<RequestRecord>,
        busy_s: f64,
        iterations: u64,
    ) -> SimReport {
        SimReport {
            system: self.label.to_string(),
            trace: trace.name.clone(),
            makespan_s: records.iter().fold(0.0f64, |m, r| m.max(r.completed)),
            records,
            cache_stats: *self.cache.stats(),
            busy_s,
            iterations,
        }
    }
}

/// Checks that `req` may follow an arrival at `last` and returns its own
/// arrival: every driver serves arrivals in order.
///
/// # Panics
///
/// Panics if the arrival is not finite or precedes `last`.
pub(crate) fn check_arrival(req: &Request, last: f64) -> f64 {
    let t = req.arrival;
    assert!(
        t.is_finite(),
        "arrival of request {} is not finite: {t}",
        req.id
    );
    assert!(
        t >= last,
        "arrival of request {} at {t} precedes its predecessor's at {last}",
        req.id
    );
    t
}

/// Replays traces against one cache, mirroring an inference engine's
/// lookup → prefill → decode → admit loop (paper §2.2):
///
/// 1. look up the longest reusable prefix for the request's input at its
///    arrival time;
/// 2. prefill only the uncached suffix (TTFT from the [`GpuModel`]);
/// 3. after the (simulated) decode, admit the full sequence's states.
///
/// Requests are processed in arrival order, like the paper's artifact
/// simulator. This is the *analytic* discipline: service takes no virtual
/// time, so nothing queues and every request is admitted and completed at
/// its arrival.
///
/// # Examples
///
/// ```
/// use marconi_core::HybridPrefixCache;
/// use marconi_model::ModelConfig;
/// use marconi_sim::{Engine, GpuModel};
/// use marconi_workload::{DatasetKind, TraceGenerator};
///
/// let cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
///     .capacity_bytes(8 << 30)
///     .build();
/// let mut engine = Engine::new(cache, GpuModel::a100_x4());
/// let trace = TraceGenerator::new(DatasetKind::ShareGpt)
///     .sessions(3)
///     .seed(5)
///     .generate();
/// let report = engine.run(&trace);
/// assert_eq!(report.records.len(), trace.len());
/// ```
#[derive(Debug)]
pub struct Engine<C> {
    replica: Replica<C>,
    gpu: GpuModel,
}

impl<C: PrefixCache> Engine<C> {
    /// Creates an engine around a cache and a device model.
    #[must_use]
    pub fn new(cache: C, gpu: GpuModel) -> Self {
        Engine {
            replica: Replica::new(cache, None),
            gpu,
        }
    }

    /// Re-bounds the per-session cursor table. A capacity of 0 disables
    /// the session fast path entirely — every request root-walks — which
    /// is the reference the serving pins compare hinted runs against;
    /// results are byte-identical either way (the parity contract), only
    /// the walk cost changes.
    pub fn set_session_cursor_capacity(&mut self, cap: usize) {
        self.replica.cursors = CursorTable::new(cap);
    }

    /// Attaches a tracer to the engine's own decisions (the compute-or-load
    /// pricing of host hits). Cache-level events are attached on the cache
    /// itself before it is handed to the engine.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.replica.tracer = tracer;
    }

    /// Access to the underlying cache (e.g. for baseline-specific
    /// diagnostics like vLLM+ block-reuse reports).
    #[must_use]
    pub fn cache(&self) -> &C {
        &self.replica.cache
    }

    /// Replays `trace`, serving each request at its arrival time, and
    /// produces the per-request report. Cache and cursor state persist
    /// across calls; `cache_stats` is cumulative.
    ///
    /// A hit whose prefix is partly host-resident additionally charges the
    /// reload latency on top of the uncached-suffix prefill, and the record
    /// carries which arm was taken. Single-tier caches never report host
    /// bytes, so their TTFTs are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if an arrival is not finite or precedes its predecessor's.
    pub fn run(&mut self, trace: &Trace) -> SimReport {
        let mut now = f64::NEG_INFINITY;
        let records = trace
            .requests
            .iter()
            .map(|req| {
                now = check_arrival(req, now);
                let adm = self.replica.admit(req, now, &self.gpu, false);
                let model = self.replica.cache.model();
                let ttft_ms = self
                    .gpu
                    .ttft_ms(model, req.input_len(), adm.hit.tokens_matched)
                    + adm.reload_s * 1e3;
                self.replica.complete(req, adm, now, ttft_ms, now)
            })
            .collect();
        self.replica.report(trace, records, 0.0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marconi_core::HybridPrefixCache;
    use marconi_model::ModelConfig;
    use marconi_workload::{DatasetKind, TraceGenerator};

    fn trace() -> Trace {
        TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(8)
            .seed(2)
            .generate()
    }

    #[test]
    fn multi_turn_workload_hits_under_marconi() {
        let cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(1 << 40)
            .build();
        let mut engine = Engine::new(cache, GpuModel::a100_x4());
        let report = engine.run(&trace());
        assert!(
            report.token_hit_rate() > 0.2,
            "conversation history should yield hits, got {}",
            report.token_hit_rate()
        );
    }

    #[test]
    fn vanilla_never_hits_and_is_slower() {
        let t = trace();
        let mut vanilla = Engine::new(
            crate::vanilla(ModelConfig::hybrid_7b()),
            GpuModel::a100_x4(),
        );
        let mut marconi = Engine::new(
            HybridPrefixCache::builder(ModelConfig::hybrid_7b())
                .capacity_bytes(1 << 40)
                .build(),
            GpuModel::a100_x4(),
        );
        let rv = vanilla.run(&t);
        let rm = marconi.run(&t);
        assert_eq!(rv.token_hit_rate(), 0.0);
        let p95v = rv.ttft_percentile_ms(0.95).unwrap();
        let p95m = rm.ttft_percentile_ms(0.95).unwrap();
        assert!(p95m < p95v, "caching must reduce P95 TTFT");
    }

    #[test]
    fn records_align_with_trace() {
        let t = trace();
        let cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(1 << 40)
            .build();
        let mut engine = Engine::new(cache, GpuModel::a100_x4());
        let report = engine.run(&t);
        assert_eq!(report.records.len(), t.len());
        for (rec, req) in report.records.iter().zip(&t.requests) {
            assert_eq!(rec.id, req.id);
            assert_eq!(rec.input_len, req.input_len());
            assert!(rec.hit_tokens <= rec.input_len);
            assert!(rec.ttft_ms > 0.0);
        }
    }

    #[test]
    fn tiered_runs_charge_reload_latency_per_request() {
        use marconi_core::{EvictionPolicy, ReloadPolicy};
        let t = trace();
        let m = ModelConfig::hybrid_7b();
        let capacity = 6000 * m.kv_bytes_per_token();
        let run = |policy: ReloadPolicy| {
            let cache = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(capacity)
                .host_capacity_bytes(8 << 30)
                .policy(EvictionPolicy::Lru)
                .reload_policy(policy)
                .build();
            Engine::new(cache, GpuModel::a100_x4()).run(&t)
        };
        let col = run(ReloadPolicy::ComputeOrLoad);
        let recompute = run(ReloadPolicy::AlwaysRecompute);
        let host_hits: Vec<_> = col
            .records
            .iter()
            .filter(|r| r.host_hit_tokens > 0)
            .collect();
        assert!(!host_hits.is_empty(), "trace must produce host hits");
        for r in &host_hits {
            assert!(r.reload_ms > 0.0, "req {}: host hits charge reload", r.id);
            assert!(r.reload.is_some());
        }
        assert!(
            col.records.iter().any(|r| r.host_hit_tokens == 0),
            "device hits exist too"
        );
        // The instantaneous engine admits identically under both reload
        // policies, so TTFTs compare record for record: the compute-or-load
        // rule can only lower them.
        for (a, b) in col.records.iter().zip(&recompute.records) {
            assert_eq!(a.hit_tokens, b.hit_tokens);
            assert!(a.ttft_ms <= b.ttft_ms + 1e-9, "req {}", a.id);
        }
        assert!(col.hit_tier_split().host > 0);
    }

    #[test]
    fn replays_are_deterministic() {
        let t = trace();
        let run = || {
            let cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
                .capacity_bytes(2 << 30)
                .build();
            Engine::new(cache, GpuModel::a100_x4()).run(&t)
        };
        assert_eq!(run(), run());
    }
}
