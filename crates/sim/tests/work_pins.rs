//! Exact work counts on scaled-down shapes of the four ledger workloads.
//!
//! Each shape is a small seeded replay of one `benchmark/` workload —
//! `chat_fit` (everything fits), `agent_pressure` (SWE-bench trajectories
//! under α = 2 pressure), `resident_10k` (short sequences over a large
//! live pool, the cache filled before the counted run) and
//! `tenants_cluster` (8 tenants on 4 tiered LRU replicas) — through the
//! serving object the ledger drives. The counts read are the ones the
//! cache and the report already keep: the victim walk's
//! `candidates_scored` and `entries_skipped`, the token store's
//! [`StoreCounters`], the executor's `iterations`, and the session fast
//! path's `CursorResumed` / `CursorFallback` events, taken from a counting
//! sink (recording reads the cache, it never steers it).
//!
//! All are machine-independent, so they are pinned exactly: a refactor
//! must reproduce the table, and a change that makes a workload do more
//! work fails here before it shows on a timing run. A mismatch prints the
//! whole computed table; a deliberate change pastes it over `PINS` and
//! says why.

use marconi_core::{EvictionPolicy, HybridPrefixCache, PrefixCache, StoreCounters};
use marconi_model::ModelConfig;
use marconi_sim::{Engine, EventCluster, EventSim, GpuModel, RoutingPolicy};
use marconi_trace::{TraceEvent, TraceSink, Tracer};
use marconi_workload::{DatasetKind, Trace, TraceGenerator};
use std::sync::Mutex;

/// Counts the session fast path's outcomes and drops everything else.
#[derive(Default)]
struct CursorCounts {
    resumed: u64,
    fallback: u64,
}

impl TraceSink for CursorCounts {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::CursorResumed { .. } => self.resumed += 1,
            TraceEvent::CursorFallback { .. } => self.fallback += 1,
            _ => {}
        }
    }
}

/// One replay's work, summed over its caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    candidates_scored: u64,
    entries_skipped: u64,
    store: StoreCounters,
    iterations: u64,
    cursor_resumed: u64,
    cursor_fallback: u64,
    /// Not pinned: the regime check that the shape evicts (or not) like
    /// the workload it stands for.
    evictions: u64,
}

impl Work {
    fn new(caches: &[&HybridPrefixCache], iterations: u64, cursors: &Mutex<CursorCounts>) -> Work {
        let mut store = StoreCounters::default();
        for c in caches {
            let s = c.store_counters();
            store.appended += s.appended;
            store.merge_copied += s.merge_copied;
            store.pages += s.pages;
            store.pages_reused += s.pages_reused;
            store.peak_live += s.peak_live;
            store.peak_ranges += s.peak_ranges;
            store.link_slots += s.link_slots;
        }
        let cursors = cursors.lock().expect("lock: the sink is not poisoned");
        Work {
            candidates_scored: caches.iter().map(|c| c.candidates_scored()).sum(),
            entries_skipped: caches.iter().map(|c| c.entries_skipped()).sum(),
            store,
            iterations,
            cursor_resumed: cursors.resumed,
            cursor_fallback: cursors.fallback,
            evictions: caches.iter().map(|c| c.stats().evictions).sum(),
        }
    }

    fn row(&self) -> [u64; 12] {
        [
            self.candidates_scored,
            self.entries_skipped,
            self.store.appended,
            self.store.merge_copied,
            self.store.pages,
            self.store.pages_reused,
            self.store.peak_live,
            self.store.peak_ranges,
            self.store.link_slots,
            self.iterations,
            self.cursor_resumed,
            self.cursor_fallback,
        ]
    }
}

const GB: u64 = 1 << 30;

fn kv_bytes(tokens: u64) -> u64 {
    tokens * ModelConfig::hybrid_7b().kv_bytes_per_token()
}

fn trace(dataset: DatasetKind, sessions: usize, tenants: usize, seed: u64) -> Trace {
    TraceGenerator::new(dataset)
        .sessions(sessions)
        .tenants(tenants)
        .seed(seed)
        .generate()
}

fn cache(policy: EvictionPolicy, capacity_bytes: u64) -> HybridPrefixCache {
    HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(capacity_bytes)
        .policy(policy)
        .build()
}

/// One `Engine` around `cache`: `warm` (if any) is replayed first, then
/// `trace`; both count.
fn engine_work(mut cache: HybridPrefixCache, warm: Option<&Trace>, trace: &Trace) -> Work {
    let (tracer, cursors) = Tracer::to_sink(CursorCounts::default());
    cache.set_tracer(tracer);
    let mut engine = Engine::new(cache, GpuModel::a100_x4());
    let mut iterations = 0;
    if let Some(warm) = warm {
        iterations += engine.run(warm).iterations;
    }
    iterations += engine.run(trace).iterations;
    Work::new(&[engine.cache()], iterations, &cursors)
}

fn chat_fit() -> Work {
    let trace = trace(DatasetKind::ShareGpt, 200, 1, 4242);
    engine_work(cache(EvictionPolicy::default(), 1 << 50), None, &trace)
}

fn agent_pressure() -> Work {
    let trace = trace(DatasetKind::SweBench, 16, 1, 4243);
    engine_work(
        cache(EvictionPolicy::FlopAware { alpha: 2.0 }, GB),
        None,
        &trace,
    )
}

fn resident_10k() -> Work {
    let mut warm = trace(DatasetKind::ShareGpt, 300, 1, 4244);
    let timed = Trace {
        name: "timed".into(),
        requests: warm.requests.split_off(warm.len() * 4 / 5),
    };
    engine_work(
        cache(EvictionPolicy::FlopAware { alpha: 2.0 }, kv_bytes(20_000)),
        Some(&warm),
        &timed,
    )
}

/// The cluster's replica caches are untraced, so the cursor counts come
/// from a second pass, as the ledger's traced phase gets them: each
/// replica's share of the trace (by the run's assignment log) replayed
/// alone through a traced `EventSim` on a fresh cache of the same size.
fn tenants_cluster() -> Work {
    let trace = trace(DatasetKind::ShareGpt, 200, 8, 4245).time_scaled(8.0);
    let mut cluster = EventCluster::builder(ModelConfig::hybrid_7b())
        .replicas(4)
        .total_capacity_bytes(kv_bytes(24_000))
        .total_host_capacity_bytes(kv_bytes(96_000))
        .policy(EvictionPolicy::Lru)
        .routing(RoutingPolicy::PrefixAware)
        .build();
    let report = cluster.run(&trace);
    let iterations = report.replicas.iter().map(|r| r.iterations).sum();
    let caches: Vec<_> = (0..cluster.replica_count())
        .map(|i| cluster.replica_cache(i))
        .collect();
    let (tracer, cursors) = Tracer::to_sink(CursorCounts::default());
    for replica in 0..caches.len() {
        let requests = trace
            .requests
            .iter()
            .zip(&report.assignments)
            .filter(|&(_, &to)| to == replica)
            .map(|(req, _)| req.clone())
            .collect();
        let share = Trace {
            name: format!("replica {replica}"),
            requests,
        };
        let mut cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(kv_bytes(24_000 / 4))
            .host_capacity_bytes(kv_bytes(96_000 / 4))
            .policy(EvictionPolicy::Lru)
            .build();
        cache.set_tracer(tracer.clone());
        EventSim::new(cache, GpuModel::a100_x4()).run(&share);
    }
    Work::new(&caches, iterations, &cursors)
}

/// Per workload: `candidates_scored`, `entries_skipped`, the seven
/// `StoreCounters` fields (appended, merge-copied, pages, pages reused,
/// peak live tokens, peak ranges, link slots), `iterations` (0 under
/// `Engine`, which has no executor), cursor resumes and cursor fallbacks.
/// Captured before `PrefixMatch` stopped carrying its matched path; the
/// store columns since the store was paged.
const PINS: [(&str, [u64; 12]); 4] = [
    (
        "chat_fit",
        [0, 0, 298520, 0, 292, 0, 298520, 893, 0, 0, 1346, 8],
    ),
    (
        "agent_pressure",
        [1524, 0, 1755897, 0, 49, 1666, 48772, 17, 12, 0, 20, 140],
    ),
    (
        "resident_10k",
        [30699, 0, 1338846, 0, 25, 1283, 20273, 35, 17, 0, 766, 1474],
    ),
    (
        "tenants_cluster",
        [
            2895, 665, 330433, 0, 111, 214, 76541, 244, 137, 135962, 1092, 933,
        ],
    ),
];

#[test]
fn the_four_workload_shapes_do_pinned_work() {
    let computed = [
        ("chat_fit", chat_fit()),
        ("agent_pressure", agent_pressure()),
        ("resident_10k", resident_10k()),
        ("tenants_cluster", tenants_cluster()),
    ];
    let table: String = computed
        .iter()
        .map(|(name, w)| format!("    ({name:?}, {:?}),\n", w.row()))
        .collect();
    for ((name, work), (pinned_name, pinned)) in computed.iter().zip(PINS) {
        assert_eq!(*name, pinned_name);
        assert_eq!(work.evictions > 0, *name != "chat_fit", "{name}: {work:?}");
        assert_eq!(
            work.row(),
            pinned,
            "{name}: work moved ({work:?}); the computed table is\n{table}"
        );
    }
}
