//! Multi-system comparison runner.

use crate::engine::Engine;
use crate::gpu::GpuModel;
use crate::report::SimReport;
use marconi_core::oracle::{best_static_alpha, SequenceEvent};
use marconi_core::{
    BlockReuseReport, CheckpointMode, EvictionPolicy, HybridPrefixCache, TunerConfig,
};
use marconi_model::ModelConfig;
use marconi_workload::Trace;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The systems of the paper's evaluation (§5.1 plus the artifact's V3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// No prefix caching.
    Vanilla,
    /// Fine-grained block checkpointing, LRU (vLLM extended to hybrids).
    VllmPlus,
    /// Judicious admission + LRU eviction (SGLang extended per §5.1).
    SglangPlus,
    /// Judicious admission + FLOP-aware eviction with online α tuning.
    Marconi,
    /// Offline-optimal static α (the artifact's eviction policy V3).
    OracleStaticAlpha,
}

impl SystemKind {
    /// All systems in presentation order.
    pub const ALL: [SystemKind; 5] = [
        SystemKind::Vanilla,
        SystemKind::VllmPlus,
        SystemKind::SglangPlus,
        SystemKind::Marconi,
        SystemKind::OracleStaticAlpha,
    ];
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SystemKind::Vanilla => "vanilla",
            SystemKind::VllmPlus => "vllm+",
            SystemKind::SglangPlus => "sglang+",
            SystemKind::Marconi => "marconi",
            SystemKind::OracleStaticAlpha => "oracle-v3",
        };
        f.write_str(name)
    }
}

/// The static α values the offline oracle replays the trace under.
const ORACLE_GRID: [f64; 8] = [0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0];

/// Configures and runs the same trace through a set of systems.
///
/// See the [crate example](crate) for usage.
#[derive(Debug, Clone)]
pub struct Comparison {
    model: ModelConfig,
    capacity_bytes: u64,
    systems: Vec<SystemKind>,
    tuner: TunerConfig,
}

/// Reports from a [`Comparison`] run, one per system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonResult {
    /// `(system, report)` pairs in the order systems were configured.
    pub reports: Vec<(SystemKind, SimReport)>,
    /// Block-reuse accounting when vLLM+ was among the systems (Fig. 3a).
    pub block_reuse: Option<BlockReuseReport>,
    /// The α the oracle chose, when it ran.
    pub oracle_alpha: Option<f64>,
}

impl ComparisonResult {
    /// The report for one system, if it was run.
    #[must_use]
    pub fn report(&self, system: SystemKind) -> Option<&SimReport> {
        self.reports
            .iter()
            .find(|(s, _)| *s == system)
            .map(|(_, r)| r)
    }
}

impl Comparison {
    /// Creates a comparison for a model and cache capacity, defaulting to
    /// all five systems. Every system is served on a 4×A100 device model,
    /// vLLM+ with its default 32-token blocks (§5.1), and the oracle
    /// searches α ∈ {0, 0.05, 0.1, 0.25, 0.5, 1, 2, 4}.
    #[must_use]
    pub fn new(model: ModelConfig, capacity_bytes: u64) -> Self {
        Comparison {
            model,
            capacity_bytes,
            systems: SystemKind::ALL.to_vec(),
            tuner: TunerConfig::default(),
        }
    }

    /// Configures Marconi's online α tuner (bootstrap multiplier, grid).
    #[must_use]
    pub fn marconi_tuner(mut self, tuner: TunerConfig) -> Self {
        self.tuner = tuner;
        self
    }

    /// Restricts which systems run.
    #[must_use]
    pub fn systems(mut self, systems: &[SystemKind]) -> Self {
        self.systems = systems.to_vec();
        self
    }

    /// Runs every configured system over `trace`.
    #[must_use]
    pub fn run(&self, trace: &Trace) -> ComparisonResult {
        let mut reports = Vec::with_capacity(self.systems.len());
        let mut block_reuse = None;
        let mut oracle_alpha = None;
        for &system in &self.systems {
            let cache = self.cache(system, trace, &mut oracle_alpha);
            let mut engine = Engine::new(cache, GpuModel::a100_x4());
            reports.push((system, engine.run(trace)));
            block_reuse = block_reuse.or(engine.cache().block_reuse());
        }
        ComparisonResult {
            reports,
            block_reuse,
            oracle_alpha,
        }
    }

    /// The cache `system` runs on. The oracle first replays `trace` over
    /// its α grid and records the α it picked.
    fn cache(
        &self,
        system: SystemKind,
        trace: &Trace,
        oracle_alpha: &mut Option<f64>,
    ) -> HybridPrefixCache {
        let builder =
            HybridPrefixCache::builder(self.model.clone()).capacity_bytes(self.capacity_bytes);
        let builder = match system {
            SystemKind::Vanilla => return vanilla(self.model.clone()),
            SystemKind::VllmPlus => return vllm_plus(self.model.clone(), self.capacity_bytes, 32),
            SystemKind::SglangPlus => builder.policy(EvictionPolicy::Lru),
            SystemKind::Marconi => builder.policy(EvictionPolicy::AutoTuned(self.tuner.clone())),
            SystemKind::OracleStaticAlpha => {
                let events: Vec<SequenceEvent> = trace
                    .requests
                    .iter()
                    .map(|r| SequenceEvent {
                        input: r.input.clone(),
                        output: r.output.clone(),
                        at: r.arrival,
                    })
                    .collect();
                let outcome =
                    best_static_alpha(&self.model, self.capacity_bytes, &events, &ORACLE_GRID);
                *oracle_alpha = Some(outcome.best_alpha);
                builder
                    .policy(EvictionPolicy::FlopAware {
                        alpha: outcome.best_alpha,
                    })
                    .name("oracle-v3")
            }
        };
        builder.build()
    }
}

/// The paper's "vanilla inference" baseline (§5.1), the denominator of
/// every relative-TTFT plot (Fig. 9), as a [`HybridPrefixCache`] with no
/// byte on either tier: every lookup misses, and an admission counts one
/// insertion and stores nothing.
///
/// # Examples
///
/// ```
/// use marconi_core::PrefixCache;
/// use marconi_model::ModelConfig;
/// use marconi_sim::vanilla;
///
/// let mut cache = vanilla(ModelConfig::hybrid_7b());
/// cache.insert_at(&[1, 2, 3], &[4], 0.0);
/// assert_eq!(cache.lookup_at(&[1, 2, 3], 1.0).tokens_matched, 0);
/// assert_eq!(cache.usage_bytes(), 0);
/// assert_eq!(cache.name(), "vanilla");
/// ```
#[must_use]
pub fn vanilla(model: ModelConfig) -> HybridPrefixCache {
    HybridPrefixCache::builder(model)
        .capacity_bytes(0)
        .policy(EvictionPolicy::Lru)
        .name("vanilla")
        .build()
}

/// The paper's vLLM+ baseline (§5.1) as a [`HybridPrefixCache`]: a
/// checkpoint at every `block_size`-token block
/// ([`CheckpointMode::EveryBlock`]), LRU over leaf blocks, and a hit
/// refreshing every block it reads.
///
/// # Examples
///
/// ```
/// use marconi_core::PrefixCache;
/// use marconi_model::ModelConfig;
/// use marconi_sim::vllm_plus;
///
/// let mut cache = vllm_plus(ModelConfig::hybrid_7b(), 4 << 30, 32);
/// let input: Vec<u32> = (0..100).collect();
/// cache.insert_at(&input, &[], 1.0);
/// // 100 tokens = 3 full blocks of 32; hits are block-quantized.
/// assert_eq!(cache.lookup_at(&input, 2.0).tokens_matched, 96);
/// ```
#[must_use]
pub fn vllm_plus(model: ModelConfig, capacity_bytes: u64, block_size: u64) -> HybridPrefixCache {
    HybridPrefixCache::builder(model)
        .capacity_bytes(capacity_bytes)
        .checkpoint_mode(CheckpointMode::EveryBlock { block_size })
        .policy(EvictionPolicy::Lru)
        .leaf_only_eviction(true)
        .refresh_ancestors(true)
        .name("vllm+")
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use marconi_core::{AdmissionReport, PrefixCache};
    use marconi_workload::{DatasetKind, TraceGenerator};

    fn trace() -> Trace {
        TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(10)
            .seed(3)
            .generate()
    }

    #[test]
    fn vanilla_never_hits() {
        let mut v = vanilla(ModelConfig::hybrid_7b());
        for i in 0..10u32 {
            v.insert_at(&[i, i + 1, i + 2], &[i + 3], f64::from(i));
            let r = v.lookup_at(&[i, i + 1, i + 2], f64::from(i));
            assert!(!r.is_hit());
        }
        assert_eq!(v.stats().token_hit_rate(), 0.0);
        assert_eq!(v.stats().lookups, 10);
    }

    #[test]
    fn vanilla_probe_always_reports_nothing_cached() {
        let mut v = vanilla(ModelConfig::hybrid_7b());
        v.insert_at(&[1, 2, 3], &[4], 0.0);
        assert_eq!(v.longest_cached_prefix_len(&[1, 2, 3]), 0);
    }

    /// The no-cache limit books no admission work: a traced replay of each
    /// request's serving steps (lookup, pin, admission, unpin) stores,
    /// checkpoints, evicts, pins and mints nothing, and records nothing
    /// but its lookups.
    #[test]
    fn vanilla_books_no_admission_work() {
        use marconi_trace::{RingRecorder, Tracer};
        let trace = TraceGenerator::new(DatasetKind::SweBench)
            .sessions(6)
            .seed(5)
            .generate();
        let mut cache = vanilla(ModelConfig::hybrid_7b());
        let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(1 << 16));
        cache.set_tracer(tracer);
        let mut cursor = None;
        for r in &trace.requests {
            assert!(!cache.lookup_at_with(&r.input, r.arrival, cursor).is_hit());
            let ticket = cache.pin_prefix_with(&r.input, cursor);
            assert!(ticket.is_empty(), "request {}: a pin", r.id);
            assert_eq!(cache.pinned_bytes(), 0);
            let (report, next) = cache.insert_at_with(&r.input, &r.output, r.arrival, cursor);
            assert_eq!(report, AdmissionReport::default(), "request {}", r.id);
            cache.unpin(ticket);
            cursor = next;
            assert!(cursor.is_none(), "request {}: a cursor", r.id);
        }
        let s = *cache.stats();
        assert_eq!(
            (s.lookups, s.insertions),
            (trace.len() as u64, trace.len() as u64)
        );
        assert_eq!(
            (
                s.ssm_states_admitted,
                s.evictions,
                s.bytes_evicted,
                s.peak_usage_bytes
            ),
            (0, 0, 0, 0)
        );
        assert_eq!(cache.node_count(), 0);
        assert_eq!(cache.usage_bytes() + cache.host_usage_bytes(), 0);
        let rec = recorder.lock().expect("lock: test-local recorder");
        assert_eq!(rec.recorded(), trace.len() as u64);
        assert!(rec.events().all(|e| e.event.kind() == "lookup"));
    }

    fn tight_capacity() -> u64 {
        let m = ModelConfig::hybrid_7b();
        3000 * m.kv_bytes_per_token() + 8 * m.ssm_checkpoint_bytes()
    }

    #[test]
    fn all_systems_produce_reports() {
        let cmp = Comparison::new(ModelConfig::hybrid_7b(), tight_capacity()).run(&trace());
        assert_eq!(cmp.reports.len(), 5);
        for system in SystemKind::ALL {
            assert!(cmp.report(system).is_some(), "{system} missing");
        }
        assert!(cmp.oracle_alpha.is_some());
    }

    #[test]
    fn marconi_beats_vllm_plus_on_hit_rate() {
        // Fig. 7's qualitative claim under cache contention.
        let cmp = Comparison::new(ModelConfig::hybrid_7b(), tight_capacity())
            .systems(&[SystemKind::VllmPlus, SystemKind::Marconi])
            .run(&trace());
        let marconi = cmp.report(SystemKind::Marconi).unwrap().token_hit_rate();
        let vllm = cmp.report(SystemKind::VllmPlus).unwrap().token_hit_rate();
        assert!(
            marconi > vllm,
            "marconi {marconi} must beat vllm+ {vllm} under contention"
        );
    }

    #[test]
    fn oracle_at_least_matches_sglang_plus() {
        let cmp = Comparison::new(ModelConfig::hybrid_7b(), tight_capacity())
            .systems(&[SystemKind::SglangPlus, SystemKind::OracleStaticAlpha])
            .run(&trace());
        let sglang = cmp.report(SystemKind::SglangPlus).unwrap().token_hit_rate();
        let oracle = cmp
            .report(SystemKind::OracleStaticAlpha)
            .unwrap()
            .token_hit_rate();
        assert!(
            oracle >= sglang - 1e-9,
            "oracle (α includes 0) can't lose to LRU: {oracle} vs {sglang}"
        );
    }

    #[test]
    fn pure_transformer_systems_converge() {
        // Fig. 12a rightmost group: with no SSM layers the three caching
        // systems behave (nearly) identically; block quantization costs
        // vLLM+ at most one block per request.
        let m = ModelConfig::transformer_7b();
        let capacity = 6000 * m.kv_bytes_per_token();
        let cmp = Comparison::new(m, capacity)
            .systems(&[
                SystemKind::VllmPlus,
                SystemKind::SglangPlus,
                SystemKind::Marconi,
            ])
            .run(&trace());
        let sglang = cmp.report(SystemKind::SglangPlus).unwrap().token_hit_rate();
        let marconi = cmp.report(SystemKind::Marconi).unwrap().token_hit_rate();
        let vllm = cmp.report(SystemKind::VllmPlus).unwrap().token_hit_rate();
        assert!((sglang - marconi).abs() < 0.05);
        assert!((sglang - vllm).abs() < 0.1);
    }

    #[test]
    fn vllm_plus_hits_on_the_tight_trace_are_pinned() {
        // Per-request vLLM+ hit tokens, the cumulative stats and the Fig.
        // 3a counters of the tight-capacity trace, pinned exactly.
        let cmp = Comparison::new(ModelConfig::hybrid_7b(), tight_capacity())
            .systems(&[SystemKind::VllmPlus])
            .run(&trace());
        let report = cmp.report(SystemKind::VllmPlus).unwrap();
        let hits: Vec<u64> = report.records.iter().map(|r| r.hit_tokens).collect();
        let mut want = vec![0u64; 40];
        for (i, tokens) in [(7, 448), (8, 448), (18, 320), (31, 448)] {
            want[i] = tokens;
        }
        for i in [33, 34, 35, 39] {
            want[i] = 448;
        }
        assert_eq!(hits, want);
        let stats = report.cache_stats;
        assert_eq!(
            (stats.hit_tokens, stats.ssm_states_admitted, stats.evictions),
            (3456, 1497, 1483)
        );
        assert_eq!(
            (stats.bytes_evicted, stats.peak_usage_bytes),
            (42_763_550_720, 4_296_540_160)
        );
        let reuse = cmp.block_reuse.expect("vLLM+ ran");
        assert_eq!(
            (reuse.blocks_created, reuse.kv_reused, reuse.ssm_reused),
            (1497, 66, 5)
        );
    }
}
