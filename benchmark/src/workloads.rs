//! The four pinned workloads, their serving objects, and the regime guards
//! that keep each one measuring what it is named for.

use crate::spans::{SharedLog, SpanName, NO_REQUEST};
use marconi_core::{CacheStats, EvictionPolicy, HybridPrefixCache, PrefixCache};
use marconi_model::ModelConfig;
use marconi_sim::{
    Engine, EventCluster, EventClusterReport, EventReport, EventSim, GpuModel, PrefixAware, Router,
    SimReport,
};
use marconi_trace::Tracer;
use marconi_workload::{DatasetKind, Trace, TraceGenerator};
use std::borrow::Cow;
use std::hint::black_box;
use std::time::Instant;

/// Hit tokens of a request the report holds no record for.
pub const MISSING: u64 = u64::MAX;

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload is in the set (also in `BENCHMARK.json`).
    pub why: &'static str,
    dataset: DatasetKind,
    sessions: usize,
    tenants: usize,
    /// Arrival compression (`Trace::time_scaled`): an open loop in virtual
    /// time. `None` leaves the generated arrivals alone.
    time_scale: Option<f64>,
    policy: fn() -> EvictionPolicy,
    capacity_bytes: u64,
    host_capacity_bytes: u64,
    /// 1 = `Engine` around one cache; more = `EventCluster` behind
    /// `PrefixAware` with the budget split evenly.
    pub replicas: usize,
    /// Warm-up replays in set-up. One is enough where a replay runs for
    /// seconds.
    pub warmups: usize,
    /// `Some((fill, timed))`: the first `fill` requests of the generated
    /// trace are replayed, untimed, into every fresh cache before the clock
    /// starts, so that the timed run — the next `timed` requests — meets the
    /// cache already at capacity (choosing-metrics §8: let caches fill
    /// before timing). The rest of the trace is dropped, so every seed times
    /// the same number of requests. `None` = the whole trace, from cold.
    prefill: Option<(usize, usize)>,
}

/// What one seed turns into.
#[derive(Debug)]
pub struct Load {
    /// The head of the generated trace that fills the cache; `None` for a
    /// workload that starts cold.
    pub warm: Option<Trace>,
    /// The requests that are timed and checked, ids renumbered from 0.
    pub trace: Trace,
}

/// Workloads are the entries of [`WORKLOADS`]; the name identifies one.
impl PartialEq for Workload {
    fn eq(&self, other: &Workload) -> bool {
        self.name == other.name
    }
}

const GB: u64 = 1 << 30;

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "chat_fit",
        why: "working set fits, 0 evictions: radix walk, cursors and the sim loop do all the work; the bypass workload for every eviction change",
        dataset: DatasetKind::ShareGpt,
        sessions: 6_000,
        tenants: 1,
        time_scale: None,
        policy: EvictionPolicy::default,
        capacity_bytes: 1 << 50,
        host_capacity_bytes: 0,
        replicas: 1,
        warmups: 2,
        prefill: None,
    },
    Workload {
        name: "agent_pressure",
        why: "the paper's traffic: long shared agent trajectories on a tiny tree under constant eviction pressure; cost is per token, outcomes respond to policy",
        dataset: DatasetKind::SweBench,
        sessions: 800,
        tenants: 1,
        time_scale: None,
        policy: || EvictionPolicy::FlopAware { alpha: 2.0 },
        capacity_bytes: 32 * GB,
        host_capacity_bytes: 0,
        replicas: 1,
        warmups: 2,
        prefill: None,
    },
    Workload {
        name: "resident_10k",
        why: "short sequences over ~10k live eviction candidates: nearly every insert scores the whole pool, so victim selection does most of the work",
        dataset: DatasetKind::ShareGpt,
        sessions: 3_400,
        tenants: 1,
        time_scale: None,
        policy: || EvictionPolicy::FlopAware { alpha: 2.0 },
        capacity_bytes: 500 * GB,
        host_capacity_bytes: 0,
        replicas: 1,
        warmups: 1,
        prefill: Some((11_500, 3_000)),
    },
    Workload {
        name: "tenants_cluster",
        why: "the only path through router, executor and tiered cache: 8 tenants on 4 replicas with real queueing, pins, demotion and host reloads",
        dataset: DatasetKind::ShareGpt,
        sessions: 8_000,
        tenants: 8,
        time_scale: Some(8.0),
        policy: || EvictionPolicy::Lru,
        capacity_bytes: 16 * GB,
        host_capacity_bytes: 64 * GB,
        replicas: 4,
        warmups: 2,
        prefill: None,
    },
];

/// What one call of a serving object's `run` produced.
#[derive(Debug)]
pub enum Report {
    /// With the cache's statistics from before the timed run: `SimReport`
    /// counts from construction, which includes a prefill.
    Engine(SimReport, CacheStats),
    Event(EventReport),
    Cluster(EventClusterReport),
}

/// State read off the serving object while it was still alive.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    pub nodes_live: u64,
    pub usage_bytes: u64,
    pub capacity_bytes: u64,
    /// The process's `VmRSS` in kB at that moment.
    pub rss_kb: u64,
}

impl Gauges {
    fn read<'a>(caches: impl Iterator<Item = &'a HybridPrefixCache>) -> Gauges {
        let mut g = Gauges {
            rss_kb: rss_kb(),
            ..Gauges::default()
        };
        for c in caches {
            g.nodes_live += c.node_count() as u64;
            g.usage_bytes += c.usage_bytes();
            g.capacity_bytes += c.capacity_bytes();
        }
        g
    }
}

/// All shards of one [`Workload::replay_shards`] call, merged.
#[derive(Debug)]
pub struct ShardRun {
    /// Sum of the `run` calls' wall times.
    pub wall_ns: u64,
    /// Hit tokens by request id of the whole trace.
    pub hits: Vec<u64>,
    /// Cache statistics summed over shards, as `aggregate_stats` sums them.
    pub stats: CacheStats,
    pub iterations: u64,
}

#[derive(Debug)]
pub struct Replay {
    /// Wall time of the `run` call alone.
    pub wall_ns: u64,
    pub report: Report,
    pub gauges: Gauges,
}

/// Times one `run` call with a clock pair of its own; with a log, the root
/// `sim.run` span opens and closes just inside that pair.
fn timed_run<R>(log: Option<&SharedLog>, run: impl FnOnce() -> R) -> (u64, R) {
    let start = Instant::now();
    let root = log.map(|l| l.borrow_mut().begin(SpanName::Run, NO_REQUEST, 0));
    let report = black_box(run());
    if let (Some(l), Some(root)) = (log, root) {
        l.borrow_mut().end(root, 0);
    }
    (start.elapsed().as_nanos() as u64, report)
}

/// One `Engine` around `cache`: the prefill, if any, as a `run` call of its
/// own (what it logs is dropped), then the timed `run`. The engine comes back
/// so the caller can read its cache while it is alive.
fn run_engine<C: PrefixCache>(
    cache: C,
    warm: Option<&Trace>,
    trace: &Trace,
    tracer: &Tracer,
    log: Option<&SharedLog>,
) -> (u64, Report, Engine<C>) {
    let mut engine = Engine::new(cache, GpuModel::a100_x4());
    engine.set_tracer(tracer.clone());
    if let Some(warm) = warm {
        black_box(engine.run(warm));
        if let Some(log) = log {
            log.borrow_mut().spans.clear();
        }
    }
    let before = *engine.cache().stats();
    let (wall_ns, report) = timed_run(log, || engine.run(black_box(trace)));
    (wall_ns, Report::Engine(report, before), engine)
}

/// Resident set size of this process in kB (0 where `/proc` is absent).
pub fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The load for `--seed`: each workload offsets the seed by its index so
    /// no two share a trace.
    pub fn generate(&self, seed: u64) -> Load {
        let index = WORKLOADS
            .iter()
            .position(|w| w.name == self.name)
            .expect("invariant: workloads come from WORKLOADS") as u64;
        let trace = TraceGenerator::new(self.dataset)
            .sessions(self.sessions)
            .tenants(self.tenants)
            .seed(seed.wrapping_add(index))
            .generate();
        let mut trace = match self.time_scale {
            Some(rate) => trace.time_scaled(rate),
            None => trace,
        };
        let Some((fill, timed)) = self.prefill else {
            return Load { warm: None, trace };
        };
        assert!(
            self.replicas == 1 && fill + timed <= trace.len(),
            "invariant: only an Engine is prefilled, and the trace covers fill + timed"
        );
        trace.requests.truncate(fill + timed);
        let mut timed = trace.requests.split_off(fill);
        for (id, req) in timed.iter_mut().enumerate() {
            req.id = id as u64;
        }
        let measured = Trace {
            name: format!("{}-after{fill}", trace.name),
            requests: timed,
        };
        Load {
            warm: Some(trace),
            trace: measured,
        }
    }

    fn builder(&self, policy: EvictionPolicy, share: u64) -> HybridPrefixCache {
        HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(self.capacity_bytes / share)
            .host_capacity_bytes(self.host_capacity_bytes / share)
            .policy(policy)
            .build()
    }

    /// One fresh cache holding the workload's whole budget (`embed`).
    pub fn cache(&self) -> HybridPrefixCache {
        self.builder((self.policy)(), 1)
    }

    /// One fresh cache holding one replica's slice of the budget, as
    /// `EventClusterBuilder` cuts it; the whole budget for an `Engine`.
    pub fn shard_cache(&self) -> HybridPrefixCache {
        self.builder((self.policy)(), self.replicas as u64)
    }

    /// [`shard_cache`](Workload::shard_cache) under
    /// `EvictionPolicy::default()`, for pricing the auto-tuner's one grid
    /// search.
    pub fn auto_tuned_cache(&self) -> HybridPrefixCache {
        self.builder(EvictionPolicy::default(), self.replicas as u64)
    }

    /// One whole-trace `run` of the workload's serving object on fresh
    /// caches, tracer off: what the `replay` phase times.
    pub fn replay(&self, load: &Load) -> Replay {
        let trace = &load.trace;
        if self.replicas > 1 {
            return self.replay_cluster(trace, Box::new(PrefixAware), None);
        }
        let (wall_ns, report, engine) = run_engine(
            self.cache(),
            load.warm.as_ref(),
            trace,
            &Tracer::off(),
            None,
        );
        Replay {
            wall_ns,
            report,
            gauges: Gauges::read(std::iter::once(engine.cache())),
        }
    }

    /// The cluster behind `router` (the traced run passes a `TimedRouter`
    /// and the log its spans go to, which then also gets the root span).
    pub fn replay_cluster(
        &self,
        trace: &Trace,
        router: Box<dyn Router>,
        log: Option<&SharedLog>,
    ) -> Replay {
        let mut cluster = EventCluster::builder(ModelConfig::hybrid_7b())
            .replicas(self.replicas)
            .total_capacity_bytes(self.capacity_bytes)
            .total_host_capacity_bytes(self.host_capacity_bytes)
            .policy((self.policy)())
            .router(router)
            .build();
        let (wall_ns, report) = timed_run(log, || cluster.run(black_box(trace)));
        let caches = (0..cluster.replica_count()).map(|i| cluster.replica_cache(i));
        Replay {
            wall_ns,
            report: Report::Cluster(report),
            gauges: Gauges::read(caches),
        }
    }

    /// What each of the workload's caches sees: the whole trace under
    /// `Engine`; under a cluster, the requests `report` says were routed to
    /// each replica. A cluster's replicas meet only in the router, so each
    /// one replays alone from its share — which is how a `TimedCache` or a
    /// recorder gets under a layer that builds its own caches.
    pub fn shards<'a>(&self, trace: &'a Trace, report: &Report) -> Vec<Cow<'a, Trace>> {
        let Report::Cluster(cluster) = report else {
            return vec![Cow::Borrowed(trace)];
        };
        let mut parts: Vec<Trace> = (0..self.replicas)
            .map(|k| Trace {
                name: format!("{}[{k}]", trace.name),
                requests: Vec::new(),
            })
            .collect();
        for (req, &replica) in trace.requests.iter().zip(&cluster.assignments) {
            parts[replica].requests.push(req.clone());
        }
        parts.into_iter().map(Cow::Owned).collect()
    }

    /// One `run` per shard, each on a fresh cache from `cache` under the
    /// serving loop the workload uses (`Engine`, or one `EventSim` device per
    /// replica). `cache` may build `TimedCache`s writing to `log`, which then
    /// also gets one root span per shard. `warm` fills an `Engine`'s cache
    /// first; what it logs is dropped.
    pub fn replay_shards<C: PrefixCache>(
        &self,
        shards: &[Cow<'_, Trace>],
        warm: Option<&Trace>,
        mut cache: impl FnMut() -> C,
        tracer: &Tracer,
        log: Option<&SharedLog>,
    ) -> ShardRun {
        let requests = shards.iter().map(|s| s.len()).sum();
        let mut out = ShardRun {
            wall_ns: 0,
            hits: vec![MISSING; requests],
            stats: CacheStats::default(),
            iterations: 0,
        };
        for shard in shards {
            let shard: &Trace = shard;
            let (wall_ns, report) = if self.replicas > 1 {
                let mut sim = EventSim::new(cache(), GpuModel::a100_x4());
                sim.set_tracer(tracer.clone());
                let (wall_ns, report) = timed_run(log, || sim.run(black_box(shard)));
                (wall_ns, Report::Event(report))
            } else {
                let (wall_ns, report, _) = run_engine(cache(), warm, shard, tracer, log);
                (wall_ns, report)
            };
            out.wall_ns += wall_ns;
            report.fill_hit_tokens(&mut out.hits);
            out.stats.accumulate(&report.stats());
            out.iterations += report.iterations();
        }
        out
    }

    /// Violations of the workload's regime: conditions that hold for any
    /// seed while the workload still measures what it is named for.
    pub fn regime_violations(&self, trace: &Trace, replay: &Replay) -> Vec<String> {
        let stats = replay.report.stats();
        let requests = trace.len() as u64;
        let nodes = replay.gauges.nodes_live;
        let mut bad = Vec::new();
        let mut require = |ok: bool, what: String| {
            if !ok {
                bad.push(format!("{}: {what}", self.name));
            }
        };
        match self.name {
            "chat_fit" => {
                let gone = stats.evictions + stats.demotions;
                require(gone == 0, format!("{gone} evictions, want 0"));
            }
            "agent_pressure" => {
                require(
                    stats.evictions * 5 >= requests * 4,
                    format!("{} evictions < 0.8 x {requests} requests", stats.evictions),
                );
                require(nodes < 1_000, format!("{nodes} live nodes, want < 1000"));
            }
            "resident_10k" => {
                require(
                    (8_000..=13_000).contains(&nodes),
                    format!("{nodes} live nodes outside [8000, 13000]"),
                );
                require(
                    stats.evictions >= 2_000,
                    format!("{} evictions, want >= 2000", stats.evictions),
                );
            }
            "tenants_cluster" => {
                let Report::Cluster(cluster) = &replay.report else {
                    bad.push(format!("{}: not a cluster report", self.name));
                    return bad;
                };
                let idle = cluster
                    .replicas
                    .iter()
                    .filter(|r| r.records.is_empty())
                    .count();
                require(idle == 0, format!("{idle} replicas served nothing"));
                require(stats.demotions > 0, "no demotions".into());
                require(stats.host_hit_tokens > 0, "no host hit tokens".into());
                let util = replay.report.utilization_mean();
                require(
                    (0.15..=0.6).contains(&util),
                    format!("mean utilization {util:.3} outside [0.15, 0.6]"),
                );
                // Queues must form, yet the tail must not sit on the knee of
                // the load curve, where P95 TTFT swings 2x from seed to seed.
                let queued = replay.report.queue_ms_p95();
                require(
                    queued > 5.0,
                    format!("P95 queueing delay {queued:.1} ms <= 5 ms"),
                );
                let (p50, p95) = (
                    replay.report.ttft_quantile_ms(0.5),
                    replay.report.ttft_quantile_ms(0.95),
                );
                require(
                    p95 > 2.5 * p50 && p95 < 6.0 * p50,
                    format!("P95 TTFT {p95:.1} ms outside (2.5, 6) x P50 {p50:.1} ms"),
                );
            }
            other => bad.push(format!("{other}: no regime guard")),
        }
        bad
    }
}

impl Report {
    /// Hit tokens per request id; [`MISSING`] where the report has no record.
    pub fn hit_tokens(&self, requests: usize) -> Vec<u64> {
        let mut hits = vec![MISSING; requests];
        self.fill_hit_tokens(&mut hits);
        hits
    }

    /// Writes the hit tokens of every record into `hits[request id]`.
    pub fn fill_hit_tokens(&self, hits: &mut [u64]) {
        let mut put = |id: u64, tokens: u64| {
            if let Some(slot) = hits.get_mut(id as usize) {
                *slot = tokens;
            }
        };
        match self {
            Report::Engine(r, _) => r.records.iter().for_each(|x| put(x.id, x.hit_tokens)),
            Report::Event(r) => r.records.iter().for_each(|x| put(x.id, x.hit_tokens)),
            Report::Cluster(r) => r
                .replicas
                .iter()
                .flat_map(|rep| &rep.records)
                .for_each(|x| put(x.id, x.hit_tokens)),
        }
    }

    /// The run's cache statistics (summed over replicas for a cluster).
    pub fn stats(&self) -> CacheStats {
        match self {
            Report::Engine(r, before) => r.cache_stats.delta_since(before),
            Report::Event(r) => r.cache_stats,
            Report::Cluster(r) => r.aggregate_stats(),
        }
    }

    pub fn token_hit_rate(&self) -> f64 {
        match self {
            Report::Engine(..) => self.stats().token_hit_rate(),
            Report::Event(r) => r.token_hit_rate(),
            Report::Cluster(r) => r.aggregate_token_hit_rate(),
        }
    }

    /// Simulated TTFT quantile in ms under `GpuModel::a100_x4()`.
    pub fn ttft_quantile_ms(&self, q: f64) -> f64 {
        let summary = match self {
            Report::Engine(r, _) => r.ttft_percentile_ms(q),
            Report::Event(r) => r.ttft_percentile_ms(q),
            Report::Cluster(r) => {
                marconi_metrics::Percentiles::new(&r.ttfts_ms()).map(|p| p.quantile(q))
            }
        };
        summary.unwrap_or(0.0)
    }

    /// Prefill FLOPs the cache saved over all prefill FLOPs requested.
    pub fn flops_saved_share(&self) -> f64 {
        let mut saved = 0u128;
        let mut spent = 0u128;
        let mut add = |s: u128, p: u128| {
            saved += s;
            spent += p;
        };
        match self {
            Report::Engine(r, _) => r
                .records
                .iter()
                .for_each(|x| add(x.flops_saved, x.flops_spent)),
            Report::Event(r) => r
                .records
                .iter()
                .for_each(|x| add(x.flops_saved, x.flops_spent)),
            Report::Cluster(r) => r
                .replicas
                .iter()
                .flat_map(|rep| &rep.records)
                .for_each(|x| add(x.flops_saved, x.flops_spent)),
        }
        crate::stats::ratio(saved as f64, (saved + spent) as f64)
    }

    fn devices(&self) -> &[EventReport] {
        match self {
            Report::Engine(..) => &[],
            Report::Event(r) => std::slice::from_ref(r),
            Report::Cluster(r) => &r.replicas,
        }
    }

    /// Executor iterations (the discrete-event count); 0 under `Engine`.
    pub fn iterations(&self) -> u64 {
        self.devices().iter().map(|d| d.iterations).sum()
    }

    /// Mean device utilization over replicas; 0 under `Engine`.
    pub fn utilization_mean(&self) -> f64 {
        let d = self.devices();
        crate::stats::ratio(
            d.iter().map(EventReport::utilization).sum::<f64>(),
            d.len() as f64,
        )
    }

    /// P95 queueing delay over all requests, in simulated ms.
    pub fn queue_ms_p95(&self) -> f64 {
        let delays: Vec<f64> = self
            .devices()
            .iter()
            .flat_map(EventReport::queue_delays_ms)
            .collect();
        marconi_metrics::Percentiles::new(&delays).map_or(0.0, |p| p.p95())
    }

    /// Max over mean of the input tokens routed to each replica.
    pub fn load_imbalance(&self) -> f64 {
        let Report::Cluster(r) = self else { return 0.0 };
        let loads: Vec<f64> = r.replica_loads().iter().map(|&l| l as f64).collect();
        marconi_metrics::LoadImbalance::new(&loads).map_or(0.0, |l| l.factor())
    }

    /// Total reload latency charged for host-resident hits, in simulated ms.
    pub fn reload_ms_total(&self) -> f64 {
        match self {
            Report::Engine(r, _) => r.records.iter().map(|x| x.reload_ms).sum(),
            _ => self
                .devices()
                .iter()
                .map(EventReport::total_reload_ms)
                .sum(),
        }
    }

    /// The summary calls a reader of the report makes, for
    /// `metrics.report_summary_ms`.
    pub fn summarize(&self) -> f64 {
        let tail = match self {
            Report::Engine(r, _) => r.ttft_summary().map(|s| s.p99()),
            Report::Event(r) => r.ttft_summary().map(|s| s.p99()),
            Report::Cluster(r) => r.ttft_summary().map(|s| s.p99()),
        };
        tail.unwrap_or(0.0) + self.ttft_quantile_ms(0.95) + self.queue_ms_p95()
    }
}
