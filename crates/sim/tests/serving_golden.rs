//! Behaviour pins for the serving layer.
//!
//! One FNV-1a fingerprint per seeded configuration of every driver
//! (`Engine`, `Cluster`, `EventSim`, `EventCluster`), captured at the commit
//! before the drivers were collapsed onto one serving step (PR 14) and
//! reproduced bit-for-bit since. A fingerprint covers the assignment log
//! and, per replica, every record's `(id, hit_tokens, host_hit_tokens,
//! raw_matched, ttft_ms, reload_ms, reload, flops_spent, flops_saved)` —
//! plus `(queue_ms, e2e_ms)` under the event drivers — and the replica's
//! `CacheStats`. Floats enter by bit pattern.
//!
//! When a change moves a fingerprint on purpose, the failing test prints the
//! whole computed table; paste it over `GOLDEN` and say why in the commit.

use marconi_core::{EvictionPolicy, HybridPrefixCache};
use marconi_model::ModelConfig;
use marconi_sim::{
    Cluster, ClusterReport, Engine, EventCluster, EventSim, GpuModel, ReloadDecision,
    RoutingPolicy, SimReport,
};
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
                ReloadDecision::None => 0,
                ReloadDecision::Loaded => 1,
                ReloadDecision::Recomputed => 2,
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

/// The seeded ShareGPT 8-tenant trace, compressed in time so the modeled
/// event drivers queue.
fn trace() -> Trace {
    TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(160)
        .tenants(8)
        .seed(14)
        .generate()
        .time_scaled(24.0)
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

            for n in [1, 4] {
                for routing in [
                    RoutingPolicy::RoundRobin,
                    RoutingPolicy::SessionAffinity,
                    RoutingPolicy::PrefixAware,
                ] {
                    let mut cluster = Cluster::builder(ModelConfig::hybrid_7b())
                        .replicas(n)
                        .total_capacity_bytes(bytes(DEVICE_TOKENS))
                        .total_host_capacity_bytes(bytes(host_tokens))
                        .policy(policy.clone())
                        .routing(routing)
                        .build();
                    put(
                        &format!("cluster{n}-{routing}"),
                        fleet(&cluster.run(&trace), false),
                    );
                }
            }

            let mut sim = EventSim::new(cache(&policy, host_tokens), GpuModel::a100_x4());
            put("eventsim-modeled", single(&sim.run(&trace), true));
            let mut sim = EventSim::instantaneous(cache(&policy, host_tokens));
            put("eventsim-instantaneous", single(&sim.run(&trace), true));

            for n in [1, 4] {
                for routing in [RoutingPolicy::QueueAware, RoutingPolicy::PrefixAware] {
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

#[test]
fn every_driver_reproduces_its_pinned_fingerprint() {
    let got = fingerprints();
    let moved: Vec<&str> = got
        .iter()
        .filter(|(key, fp)| !GOLDEN.contains(&(key.as_str(), *fp)))
        .map(|(key, _)| key.as_str())
        .collect();
    let table: String = got
        .iter()
        .map(|(key, fp)| format!("    (\"{key}\", 0x{fp:016x}),\n"))
        .collect();
    assert!(
        moved.is_empty() && got.len() == GOLDEN.len(),
        "{} of {} fingerprints moved ({} pinned): {moved:?}\ncomputed table:\n{table}",
        moved.len(),
        got.len(),
        GOLDEN.len()
    );
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

/// Captured at the parent of PR 14 (commit 8ca9443).
const GOLDEN: [(&str, u64); 78] = [
    ("engine/lru/dev", 0x27c6398aec60d652),
    ("cluster1-round-robin/lru/dev", 0xedeecc11cf4352c8),
    ("cluster1-session-affinity/lru/dev", 0xedeecc11cf4352c8),
    ("cluster1-prefix-aware/lru/dev", 0xedeecc11cf4352c8),
    ("cluster4-round-robin/lru/dev", 0xcad1f896f8237bf7),
    ("cluster4-session-affinity/lru/dev", 0xafedf511909b68b6),
    ("cluster4-prefix-aware/lru/dev", 0xd44eab6b26c99063),
    ("eventsim-modeled/lru/dev", 0xd8e319165bd91cc4),
    ("eventsim-instantaneous/lru/dev", 0x26935fba88d98dd2),
    ("eventcluster1-queue-aware/lru/dev", 0x272ff1179374f346),
    ("eventcluster1-prefix-aware/lru/dev", 0x272ff1179374f346),
    ("eventcluster4-queue-aware/lru/dev", 0xd39cbf0103831d4a),
    ("eventcluster4-prefix-aware/lru/dev", 0x5d26d929e315ef81),
    ("engine/flop2/dev", 0x3f42452cdb6f9f4b),
    ("cluster1-round-robin/flop2/dev", 0xdaf5d097361669b1),
    ("cluster1-session-affinity/flop2/dev", 0xdaf5d097361669b1),
    ("cluster1-prefix-aware/flop2/dev", 0xdaf5d097361669b1),
    ("cluster4-round-robin/flop2/dev", 0xd07e505474f8aaca),
    ("cluster4-session-affinity/flop2/dev", 0xd3c44322602edfb2),
    ("cluster4-prefix-aware/flop2/dev", 0x1c8f4ecc8aadd32d),
    ("eventsim-modeled/flop2/dev", 0x453669e39c7234a7),
    ("eventsim-instantaneous/flop2/dev", 0x467d044c8bacce0d),
    ("eventcluster1-queue-aware/flop2/dev", 0x4662af8054d70c49),
    ("eventcluster1-prefix-aware/flop2/dev", 0x4662af8054d70c49),
    ("eventcluster4-queue-aware/flop2/dev", 0x1326bde4a514d063),
    ("eventcluster4-prefix-aware/flop2/dev", 0x365a79e3161304e3),
    ("engine/auto/dev", 0x538502a71c3f498b),
    ("cluster1-round-robin/auto/dev", 0x44cfb651b0090741),
    ("cluster1-session-affinity/auto/dev", 0x44cfb651b0090741),
    ("cluster1-prefix-aware/auto/dev", 0x44cfb651b0090741),
    ("cluster4-round-robin/auto/dev", 0x5f17d8554a622788),
    ("cluster4-session-affinity/auto/dev", 0xd089198b8d89d836),
    ("cluster4-prefix-aware/auto/dev", 0x3a369b6ebcded63c),
    ("eventsim-modeled/auto/dev", 0x8b01c6b30695c50b),
    ("eventsim-instantaneous/auto/dev", 0x4c1c92edadcd55f7),
    ("eventcluster1-queue-aware/auto/dev", 0xf46f5fb91f4c88dd),
    ("eventcluster1-prefix-aware/auto/dev", 0xf46f5fb91f4c88dd),
    ("eventcluster4-queue-aware/auto/dev", 0xc11be57dfaf8ed35),
    ("eventcluster4-prefix-aware/auto/dev", 0x5dec018b95c2e3e3),
    ("engine/lru/tier", 0x506de1e429d1ebdd),
    ("cluster1-round-robin/lru/tier", 0x3fc257593bb93223),
    ("cluster1-session-affinity/lru/tier", 0x3fc257593bb93223),
    ("cluster1-prefix-aware/lru/tier", 0x3fc257593bb93223),
    ("cluster4-round-robin/lru/tier", 0x37260c7a060bcf9d),
    ("cluster4-session-affinity/lru/tier", 0x2e6d3bfaa4d08d11),
    ("cluster4-prefix-aware/lru/tier", 0x5a14558720678f65),
    ("eventsim-modeled/lru/tier", 0xb13a300bc6205599),
    ("eventsim-instantaneous/lru/tier", 0xdb71248b841f3413),
    ("eventcluster1-queue-aware/lru/tier", 0x1cf0b8cf44bf21ff),
    ("eventcluster1-prefix-aware/lru/tier", 0x1cf0b8cf44bf21ff),
    ("eventcluster4-queue-aware/lru/tier", 0x3b1b28033fe905a4),
    ("eventcluster4-prefix-aware/lru/tier", 0x97fe9d495a96d9c8),
    ("engine/flop2/tier", 0xcab918c0e80b60ec),
    ("cluster1-round-robin/flop2/tier", 0xf061167f7913722e),
    ("cluster1-session-affinity/flop2/tier", 0xf061167f7913722e),
    ("cluster1-prefix-aware/flop2/tier", 0xf061167f7913722e),
    ("cluster4-round-robin/flop2/tier", 0xddb3d33b076d13d0),
    ("cluster4-session-affinity/flop2/tier", 0x7ad3c7401d8fcc37),
    ("cluster4-prefix-aware/flop2/tier", 0x38e73cdffc4b083c),
    ("eventsim-modeled/flop2/tier", 0xfc18016248b691f3),
    ("eventsim-instantaneous/flop2/tier", 0x967ce9517400dfd3),
    ("eventcluster1-queue-aware/flop2/tier", 0x47a65e12c7e380c9),
    ("eventcluster1-prefix-aware/flop2/tier", 0x47a65e12c7e380c9),
    ("eventcluster4-queue-aware/flop2/tier", 0xfc994217e50d94ff),
    ("eventcluster4-prefix-aware/flop2/tier", 0xc99729a399954e39),
    ("engine/auto/tier", 0x506de1e429d1ebdd),
    ("cluster1-round-robin/auto/tier", 0x3fc257593bb93223),
    ("cluster1-session-affinity/auto/tier", 0x3fc257593bb93223),
    ("cluster1-prefix-aware/auto/tier", 0x3fc257593bb93223),
    ("cluster4-round-robin/auto/tier", 0x37260c7a060bcf9d),
    ("cluster4-session-affinity/auto/tier", 0x2e6d3bfaa4d08d11),
    ("cluster4-prefix-aware/auto/tier", 0x5a14558720678f65),
    ("eventsim-modeled/auto/tier", 0xb13a300bc6205599),
    ("eventsim-instantaneous/auto/tier", 0xdb71248b841f3413),
    ("eventcluster1-queue-aware/auto/tier", 0x1cf0b8cf44bf21ff),
    ("eventcluster1-prefix-aware/auto/tier", 0x1cf0b8cf44bf21ff),
    ("eventcluster4-queue-aware/auto/tier", 0x3b1b28033fe905a4),
    ("eventcluster4-prefix-aware/auto/tier", 0xe6e78120ae73612a),
];
