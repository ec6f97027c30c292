//! Behaviour pins for the serving layer.
//!
//! One FNV-1a fingerprint per seeded configuration of every driver
//! (`Engine`, `EventSim`, `EventCluster`), captured at the commit
//! before the drivers were collapsed onto one serving step (PR 14) and
//! reproduced bit-for-bit since. A fingerprint covers the assignment log
//! and, per replica, every record's `(id, hit_tokens, host_hit_tokens,
//! raw_matched, ttft_ms, reload_ms, reload, flops_spent, flops_saved)` —
//! plus `(queue_ms, e2e_ms)` under the event drivers — and the replica's
//! `CacheStats`. Floats enter by bit pattern.
//!
//! A second table, `CLOCKS`, pins the event drivers' virtual clocks, which
//! the first does not cover: `busy_s`, `iterations`, `makespan_s` and every
//! record's `(id, admitted, completed)`, across batch shapes and loads
//! chosen so that decode segments end by completion and by arrival cuts.
//!
//! When a change moves a fingerprint on purpose, the failing test prints the
//! whole computed table; paste it over `GOLDEN` (or `CLOCKS`) and say why in
//! the commit.

use marconi_core::{EvictionPolicy, HybridPrefixCache};
use marconi_model::ModelConfig;
use marconi_sim::{
    BatchConfig, ClusterReport, Engine, EventCluster, EventSim, GpuModel, RoutingPolicy, SimReport,
};
use marconi_trace::ReloadDecision;
use marconi_workload::{DatasetKind, Trace, TraceGenerator};

/// Device budget in tokens of KV: a quarter of it (one replica at N = 4)
/// holds a handful of conversations, so every configuration evicts.
const DEVICE_TOKENS: u64 = 24_000;
/// Host budget of the tiered configurations, in tokens of KV.
const HOST_TOKENS: u64 = 96_000;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn u128(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// One replica's records and cache statistics. `CacheStats` enters
    /// through its `Debug` form, which names every counter.
    fn report(&mut self, rep: &SimReport, queueing: bool) {
        self.u64(rep.records.len() as u64);
        for r in &rep.records {
            self.u64(r.id);
            self.u64(r.hit_tokens);
            self.u64(r.host_hit_tokens);
            self.u64(r.raw_matched);
            self.f64(r.ttft_ms);
            self.f64(r.reload_ms);
            self.u64(match r.reload {
                None => 0,
                Some(ReloadDecision::Load) => 1,
                Some(ReloadDecision::Recompute) => 2,
            });
            self.u128(r.flops_spent);
            self.u128(r.flops_saved);
            if queueing {
                self.f64(r.queue_ms);
                self.f64(r.e2e_ms);
            }
        }
        self.bytes(format!("{:?}", rep.cache_stats).as_bytes());
    }

    fn cluster(&mut self, rep: &ClusterReport, queueing: bool) {
        self.u64(rep.assignments.len() as u64);
        for &a in &rep.assignments {
            self.u64(a as u64);
        }
        for r in &rep.replicas {
            self.report(r, queueing);
        }
    }

    /// One replica's virtual clocks.
    fn clocks(&mut self, rep: &SimReport) {
        self.f64(rep.busy_s);
        self.u64(rep.iterations);
        self.f64(rep.makespan_s);
        self.u64(rep.records.len() as u64);
        for r in &rep.records {
            self.u64(r.id);
            self.f64(r.admitted);
            self.f64(r.completed);
        }
    }
}

fn single(rep: &SimReport, queueing: bool) -> u64 {
    let mut h = Fnv::new();
    h.report(rep, queueing);
    h.0
}

fn fleet(rep: &ClusterReport, queueing: bool) -> u64 {
    let mut h = Fnv::new();
    h.cluster(rep, queueing);
    h.0
}

/// The seeded ShareGPT 8-tenant trace at its generated arrival times.
fn base_trace() -> Trace {
    TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(160)
        .tenants(8)
        .seed(14)
        .generate()
}

/// The pinned trace, compressed in time so the modeled event drivers queue.
fn trace() -> Trace {
    base_trace().time_scaled(24.0)
}

fn policies() -> [(&'static str, EvictionPolicy); 3] {
    [
        ("lru", EvictionPolicy::Lru),
        ("flop2", EvictionPolicy::FlopAware { alpha: 2.0 }),
        ("auto", EvictionPolicy::default()),
    ]
}

fn bytes(tokens: u64) -> u64 {
    tokens * ModelConfig::hybrid_7b().kv_bytes_per_token()
}

fn cache(policy: &EvictionPolicy, host_tokens: u64) -> HybridPrefixCache {
    HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(bytes(DEVICE_TOKENS))
        .host_capacity_bytes(bytes(host_tokens))
        .policy(policy.clone())
        .build()
}

/// Every pinned configuration, as `(key, fingerprint)`.
fn fingerprints() -> Vec<(String, u64)> {
    let trace = trace();
    let mut out = Vec::new();
    for (tier, host_tokens) in [("dev", 0), ("tier", HOST_TOKENS)] {
        for (pname, policy) in policies() {
            let mut put =
                |driver: &str, fp: u64| out.push((format!("{driver}/{pname}/{tier}"), fp));

            let mut engine = Engine::new(cache(&policy, host_tokens), GpuModel::a100_x4());
            let with_cursors = single(&engine.run(&trace), false);
            let mut engine = Engine::new(cache(&policy, host_tokens), GpuModel::a100_x4());
            engine.set_session_cursor_capacity(0);
            assert_eq!(
                single(&engine.run(&trace), false),
                with_cursors,
                "engine/{pname}/{tier}: cursor capacity 0 must not move the report"
            );
            put("engine", with_cursors);

            let mut sim = EventSim::new(cache(&policy, host_tokens), GpuModel::a100_x4());
            put("eventsim-modeled", single(&sim.run(&trace), true));
            let mut sim = EventSim::instantaneous(cache(&policy, host_tokens));
            put("eventsim-instantaneous", single(&sim.run(&trace), true));

            for n in [1, 4] {
                for routing in RoutingPolicy::ALL {
                    let mut cluster = EventCluster::builder(ModelConfig::hybrid_7b())
                        .replicas(n)
                        .total_capacity_bytes(bytes(DEVICE_TOKENS))
                        .total_host_capacity_bytes(bytes(host_tokens))
                        .policy(policy.clone())
                        .routing(routing)
                        .build();
                    put(
                        &format!("eventcluster{n}-{routing}"),
                        fleet(&cluster.run(&trace), true),
                    );
                }
            }
        }
    }
    out
}

/// Batch shapes of the clock pins: the default; 3 slots with 256-token
/// chunks, so completions end most decode segments; 64 slots with
/// 100k-token chunks, so arrivals into free slots cut them.
fn batches() -> [(&'static str, BatchConfig); 3] {
    let shape = |max_batch_requests, prefill_chunk_tokens| BatchConfig {
        max_batch_requests,
        prefill_chunk_tokens,
    };
    [
        ("b16x4096", BatchConfig::default()),
        ("b3x256", shape(3, 256)),
        ("b64x100k", shape(64, 100_000)),
    ]
}

/// Every pinned clock configuration, as `(key, fingerprint)`: both event
/// drivers on the tiered FlopAware cache, at a queueing (24×) and a sparse
/// (2×) load.
fn clock_fingerprints() -> Vec<(String, u64)> {
    let base = base_trace();
    let policy = EvictionPolicy::FlopAware { alpha: 2.0 };
    let mut out = Vec::new();
    for scale in [24.0, 2.0] {
        let trace = base.time_scaled(scale);
        for (shape, batch) in batches() {
            let mut put = |driver: &str, reps: &[SimReport]| {
                let mut h = Fnv::new();
                reps.iter().for_each(|r| h.clocks(r));
                out.push((format!("{driver}/{shape}/{scale}x"), h.0));
            };
            let sim = EventSim::new(cache(&policy, HOST_TOKENS), GpuModel::a100_x4());
            put("eventsim-modeled", &[sim.batch(batch.clone()).run(&trace)]);
            let sim = EventSim::instantaneous(cache(&policy, HOST_TOKENS));
            put(
                "eventsim-instantaneous",
                &[sim.batch(batch.clone()).run(&trace)],
            );
            for n in [1, 4] {
                for routing in [RoutingPolicy::QueueAware, RoutingPolicy::PrefixAware] {
                    let report = EventCluster::builder(ModelConfig::hybrid_7b())
                        .replicas(n)
                        .total_capacity_bytes(bytes(DEVICE_TOKENS))
                        .total_host_capacity_bytes(bytes(HOST_TOKENS))
                        .policy(policy.clone())
                        .routing(routing)
                        .batch(batch.clone())
                        .build()
                        .run(&trace);
                    put(&format!("eventcluster{n}-{routing}"), &report.replicas);
                }
            }
        }
    }
    out
}

/// Asserts `got` equals `pinned`, printing the whole computed table if not.
fn assert_pinned(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let moved: Vec<&str> = got
        .iter()
        .filter(|(key, fp)| !pinned.contains(&(key.as_str(), *fp)))
        .map(|(key, _)| key.as_str())
        .collect();
    let table: String = got
        .iter()
        .map(|(key, fp)| format!("    (\"{key}\", 0x{fp:016x}),\n"))
        .collect();
    assert!(
        moved.is_empty() && got.len() == pinned.len(),
        "{} of {} fingerprints moved ({} pinned): {moved:?}\ncomputed table:\n{table}",
        moved.len(),
        got.len(),
        pinned.len()
    );
}

#[test]
fn every_driver_reproduces_its_pinned_fingerprint() {
    assert_pinned(&fingerprints(), &GOLDEN);
}

#[test]
fn every_event_driver_reproduces_its_pinned_clocks() {
    assert_pinned(&clock_fingerprints(), &CLOCKS);
}

/// The pins mean something only while the configurations stay in the
/// regime they were chosen for: pressure on the device tier, traffic
/// through the host tier, queues under the modeled clock, and none in the
/// zero-load limit.
#[test]
fn the_pinned_configurations_evict_demote_reload_and_queue() {
    let trace = trace();
    let lru = EvictionPolicy::Lru;
    for n in [1, 4] {
        let run = |host_tokens: u64| {
            EventCluster::builder(ModelConfig::hybrid_7b())
                .replicas(n)
                .total_capacity_bytes(bytes(DEVICE_TOKENS))
                .total_host_capacity_bytes(bytes(host_tokens))
                .policy(lru.clone())
                .build()
                .run(&trace)
        };
        let dev = run(0);
        assert!(dev.aggregate_stats().evictions > 0, "N={n}: no evictions");
        let queued = dev.replicas.iter().flat_map(|r| &r.records);
        assert!(
            queued.clone().any(|r| r.queue_ms > 0.0),
            "N={n}: nothing queued"
        );
        let tier = run(HOST_TOKENS);
        let stats = tier.aggregate_stats();
        assert!(stats.demotions > 0, "N={n}: no demotions");
        assert!(stats.host_hit_tokens > 0, "N={n}: no host hits");
        let reloads = tier.replicas.iter().flat_map(|r| &r.records);
        assert!(
            reloads.clone().any(|r| r.reload_ms > 0.0),
            "N={n}: no reload was charged"
        );
    }
    let idle = EventSim::instantaneous(cache(&lru, 0)).run(&trace);
    assert!(idle
        .records
        .iter()
        .all(|r| r.queue_ms == 0.0 && r.ttft_ms == 0.0));
    let engine = Engine::new(cache(&lru, 0), GpuModel::a100_x4()).run(&trace);
    assert!(engine
        .records
        .iter()
        .all(|r| r.ttft_ms > 0.0 && r.queue_ms == 0.0));
}

/// Captured at commit 8ca9443, before the drivers shared one serving step;
/// the `round-robin` and `session-affinity` event-cluster rows at commit
/// c2602f3, the last with the analytic cluster.
const GOLDEN: [(&str, u64); 66] = [
    ("engine/lru/dev", 0x27c6398aec60d652),
    ("eventsim-modeled/lru/dev", 0xd8e319165bd91cc4),
    ("eventsim-instantaneous/lru/dev", 0x26935fba88d98dd2),
    ("eventcluster1-round-robin/lru/dev", 0x272ff1179374f346),
    ("eventcluster1-session-affinity/lru/dev", 0x272ff1179374f346),
    ("eventcluster1-prefix-aware/lru/dev", 0x272ff1179374f346),
    ("eventcluster1-queue-aware/lru/dev", 0x272ff1179374f346),
    ("eventcluster4-round-robin/lru/dev", 0x533ed78a63623353),
    ("eventcluster4-session-affinity/lru/dev", 0xe326a584bd3e7f43),
    ("eventcluster4-prefix-aware/lru/dev", 0x5d26d929e315ef81),
    ("eventcluster4-queue-aware/lru/dev", 0xd39cbf0103831d4a),
    ("engine/flop2/dev", 0x3f42452cdb6f9f4b),
    ("eventsim-modeled/flop2/dev", 0x453669e39c7234a7),
    ("eventsim-instantaneous/flop2/dev", 0x467d044c8bacce0d),
    ("eventcluster1-round-robin/flop2/dev", 0x4662af8054d70c49),
    (
        "eventcluster1-session-affinity/flop2/dev",
        0x4662af8054d70c49,
    ),
    ("eventcluster1-prefix-aware/flop2/dev", 0x4662af8054d70c49),
    ("eventcluster1-queue-aware/flop2/dev", 0x4662af8054d70c49),
    ("eventcluster4-round-robin/flop2/dev", 0xc94f57d9fa6fb9c5),
    (
        "eventcluster4-session-affinity/flop2/dev",
        0xfc347f48ff7fa3ee,
    ),
    ("eventcluster4-prefix-aware/flop2/dev", 0x365a79e3161304e3),
    ("eventcluster4-queue-aware/flop2/dev", 0x1326bde4a514d063),
    ("engine/auto/dev", 0x538502a71c3f498b),
    ("eventsim-modeled/auto/dev", 0x8b01c6b30695c50b),
    ("eventsim-instantaneous/auto/dev", 0x4c1c92edadcd55f7),
    ("eventcluster1-round-robin/auto/dev", 0xf46f5fb91f4c88dd),
    (
        "eventcluster1-session-affinity/auto/dev",
        0xf46f5fb91f4c88dd,
    ),
    ("eventcluster1-prefix-aware/auto/dev", 0xf46f5fb91f4c88dd),
    ("eventcluster1-queue-aware/auto/dev", 0xf46f5fb91f4c88dd),
    ("eventcluster4-round-robin/auto/dev", 0xbdcd6f5ef9d45e40),
    (
        "eventcluster4-session-affinity/auto/dev",
        0xa597dea149fe1904,
    ),
    ("eventcluster4-prefix-aware/auto/dev", 0x5dec018b95c2e3e3),
    ("eventcluster4-queue-aware/auto/dev", 0xc11be57dfaf8ed35),
    ("engine/lru/tier", 0x506de1e429d1ebdd),
    ("eventsim-modeled/lru/tier", 0xb13a300bc6205599),
    ("eventsim-instantaneous/lru/tier", 0xdb71248b841f3413),
    ("eventcluster1-round-robin/lru/tier", 0x1cf0b8cf44bf21ff),
    (
        "eventcluster1-session-affinity/lru/tier",
        0x1cf0b8cf44bf21ff,
    ),
    ("eventcluster1-prefix-aware/lru/tier", 0x1cf0b8cf44bf21ff),
    ("eventcluster1-queue-aware/lru/tier", 0x1cf0b8cf44bf21ff),
    ("eventcluster4-round-robin/lru/tier", 0xe081828eb1b8754c),
    (
        "eventcluster4-session-affinity/lru/tier",
        0xe96521705fbb643a,
    ),
    ("eventcluster4-prefix-aware/lru/tier", 0x97fe9d495a96d9c8),
    ("eventcluster4-queue-aware/lru/tier", 0x3b1b28033fe905a4),
    ("engine/flop2/tier", 0xcab918c0e80b60ec),
    ("eventsim-modeled/flop2/tier", 0xfc18016248b691f3),
    ("eventsim-instantaneous/flop2/tier", 0x967ce9517400dfd3),
    ("eventcluster1-round-robin/flop2/tier", 0x47a65e12c7e380c9),
    (
        "eventcluster1-session-affinity/flop2/tier",
        0x47a65e12c7e380c9,
    ),
    ("eventcluster1-prefix-aware/flop2/tier", 0x47a65e12c7e380c9),
    ("eventcluster1-queue-aware/flop2/tier", 0x47a65e12c7e380c9),
    ("eventcluster4-round-robin/flop2/tier", 0x923840402eca85d5),
    (
        "eventcluster4-session-affinity/flop2/tier",
        0x0e5ce76a1e6fde52,
    ),
    ("eventcluster4-prefix-aware/flop2/tier", 0xc99729a399954e39),
    ("eventcluster4-queue-aware/flop2/tier", 0xfc994217e50d94ff),
    ("engine/auto/tier", 0x506de1e429d1ebdd),
    ("eventsim-modeled/auto/tier", 0xb13a300bc6205599),
    ("eventsim-instantaneous/auto/tier", 0xdb71248b841f3413),
    ("eventcluster1-round-robin/auto/tier", 0x1cf0b8cf44bf21ff),
    (
        "eventcluster1-session-affinity/auto/tier",
        0x1cf0b8cf44bf21ff,
    ),
    ("eventcluster1-prefix-aware/auto/tier", 0x1cf0b8cf44bf21ff),
    ("eventcluster1-queue-aware/auto/tier", 0x1cf0b8cf44bf21ff),
    ("eventcluster4-round-robin/auto/tier", 0xe081828eb1b8754c),
    (
        "eventcluster4-session-affinity/auto/tier",
        0xe96521705fbb643a,
    ),
    ("eventcluster4-prefix-aware/auto/tier", 0xe6e78120ae73612a),
    ("eventcluster4-queue-aware/auto/tier", 0x3b1b28033fe905a4),
];

/// Captured at the parent of the segmented executor (commit 5b925ba), which
/// stepped every decode iteration through the event loop.
const CLOCKS: [(&str, u64); 36] = [
    ("eventsim-modeled/b16x4096/24x", 0x2ec854d37df5bdb0),
    ("eventsim-instantaneous/b16x4096/24x", 0x7bc68fd54b719abd),
    ("eventcluster1-queue-aware/b16x4096/24x", 0x2ec854d37df5bdb0),
    (
        "eventcluster1-prefix-aware/b16x4096/24x",
        0x2ec854d37df5bdb0,
    ),
    ("eventcluster4-queue-aware/b16x4096/24x", 0xcde7774c2ec08f75),
    (
        "eventcluster4-prefix-aware/b16x4096/24x",
        0xb1aabecab3e90304,
    ),
    ("eventsim-modeled/b3x256/24x", 0x7b777a4956588ab9),
    ("eventsim-instantaneous/b3x256/24x", 0x26180a259276370d),
    ("eventcluster1-queue-aware/b3x256/24x", 0x7b777a4956588ab9),
    ("eventcluster1-prefix-aware/b3x256/24x", 0x7b777a4956588ab9),
    ("eventcluster4-queue-aware/b3x256/24x", 0xec966bb7f615db58),
    ("eventcluster4-prefix-aware/b3x256/24x", 0x6539f0c9696434a6),
    ("eventsim-modeled/b64x100k/24x", 0x01ce4f21a4277403),
    ("eventsim-instantaneous/b64x100k/24x", 0x7bc68fd54b719abd),
    ("eventcluster1-queue-aware/b64x100k/24x", 0x01ce4f21a4277403),
    (
        "eventcluster1-prefix-aware/b64x100k/24x",
        0x01ce4f21a4277403,
    ),
    ("eventcluster4-queue-aware/b64x100k/24x", 0xf40ed1e9ae36f07a),
    (
        "eventcluster4-prefix-aware/b64x100k/24x",
        0x2c8af6328f3fc1be,
    ),
    ("eventsim-modeled/b16x4096/2x", 0xde62ffb73db816a3),
    ("eventsim-instantaneous/b16x4096/2x", 0x2bd2953662f15d18),
    ("eventcluster1-queue-aware/b16x4096/2x", 0xde62ffb73db816a3),
    ("eventcluster1-prefix-aware/b16x4096/2x", 0xde62ffb73db816a3),
    ("eventcluster4-queue-aware/b16x4096/2x", 0x4b1bc82bc15b95ca),
    ("eventcluster4-prefix-aware/b16x4096/2x", 0xe0c78872c9b7f37b),
    ("eventsim-modeled/b3x256/2x", 0x36d966ac3532d7c1),
    ("eventsim-instantaneous/b3x256/2x", 0x494d5fef0c2958a8),
    ("eventcluster1-queue-aware/b3x256/2x", 0x36d966ac3532d7c1),
    ("eventcluster1-prefix-aware/b3x256/2x", 0x36d966ac3532d7c1),
    ("eventcluster4-queue-aware/b3x256/2x", 0x7927e0c476d44244),
    ("eventcluster4-prefix-aware/b3x256/2x", 0xe988a52c9755eda6),
    ("eventsim-modeled/b64x100k/2x", 0xde62ffb73db816a3),
    ("eventsim-instantaneous/b64x100k/2x", 0x2bd2953662f15d18),
    ("eventcluster1-queue-aware/b64x100k/2x", 0xde62ffb73db816a3),
    ("eventcluster1-prefix-aware/b64x100k/2x", 0xde62ffb73db816a3),
    ("eventcluster4-queue-aware/b64x100k/2x", 0x4b1bc82bc15b95ca),
    ("eventcluster4-prefix-aware/b64x100k/2x", 0xe0c78872c9b7f37b),
];
