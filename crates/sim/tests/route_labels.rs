//! The `tie_break` labels real routes produce.
//!
//! A traced routing decision names the component of the prefix routers'
//! order that decided it: matched tokens, host-resident tokens, queued
//! tokens (`QueueAware` only), routed tokens, replica index. These pins
//! read the labels off traced `EventCluster` runs — a 4-replica run on
//! `work_pins.rs`'s `tenants_cluster` shape, under load so that queues
//! form, and one hand-built 2-replica request per component, each decided
//! there — so a change to the routers' order, or to how the label is
//! derived from it, fails here.

use marconi_core::EvictionPolicy;
use marconi_model::ModelConfig;
use marconi_sim::{EventCluster, RoutingPolicy};
use marconi_trace::{TraceEvent, TraceSink, Tracer};
use marconi_workload::{DatasetKind, Request, Trace, TraceGenerator};
use std::collections::BTreeMap;

/// Each routing decision's chosen replica and label, in arrival order.
type Decided = Vec<(u64, &'static str)>;

#[derive(Default)]
struct Decisions(Decided);

impl TraceSink for Decisions {
    fn record(&mut self, event: TraceEvent) {
        if let TraceEvent::RouterDecision {
            chosen, tie_break, ..
        } = event
        {
            self.0.push((chosen, tie_break));
        }
    }
}

fn kv_bytes(tokens: u64) -> u64 {
    tokens * ModelConfig::hybrid_7b().kv_bytes_per_token()
}

/// Replays `trace` on a traced, modeled, tiered LRU cluster; returns its
/// routing decisions and how many requests waited in a queue.
fn decisions(
    routing: RoutingPolicy,
    replicas: usize,
    device_tokens: u64,
    host_tokens: u64,
    trace: &Trace,
) -> (Decided, usize) {
    let mut cluster = EventCluster::builder(ModelConfig::hybrid_7b())
        .replicas(replicas)
        .total_capacity_bytes(kv_bytes(device_tokens))
        .total_host_capacity_bytes(kv_bytes(host_tokens))
        .policy(EvictionPolicy::Lru)
        .routing(routing)
        .build();
    let (tracer, sink) = Tracer::to_sink(Decisions::default());
    cluster.set_tracer(tracer);
    let report = cluster.run(trace);
    let queued = report
        .replicas
        .iter()
        .flat_map(|r| &r.records)
        .filter(|r| r.queue_ms > 0.0)
        .count();
    let decisions = std::mem::take(&mut sink.lock().expect("lock: test-local sink").0);
    (decisions, queued)
}

/// How many routing decisions each label names.
type LabelCounts = &'static [(&'static str, u64)];

/// `work_pins.rs`'s `tenants_cluster` shape: 8 tenants on 4 tiered
/// replicas at 8× the generated arrival rate, where a third of the
/// requests wait in a queue.
#[test]
fn a_loaded_tenants_run_pins_every_label_count() {
    let trace = TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(200)
        .tenants(8)
        .seed(4245)
        .generate()
        .time_scaled(8.0);
    let pins: [(RoutingPolicy, usize, LabelCounts); 2] = [
        (
            RoutingPolicy::PrefixAware,
            305,
            &[
                ("prefix-tokens", 702),
                ("replica-index", 3),
                ("routed-tokens", 228),
            ],
        ),
        (
            RoutingPolicy::QueueAware,
            228,
            &[
                ("prefix-tokens", 714),
                ("queue-depth", 9),
                ("replica-index", 3),
                ("routed-tokens", 207),
            ],
        ),
    ];
    for (routing, pinned_queued, pinned) in pins {
        let (decisions, queued) = decisions(routing, 4, 24_000, 96_000, &trace);
        assert_eq!(decisions.len(), trace.len(), "{routing}: one per request");
        assert_eq!(queued, pinned_queued, "{routing}: requests that queued");
        let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
        for (_, label) in decisions {
            *counts.entry(label).or_default() += 1;
        }
        let pinned: BTreeMap<&str, u64> = pinned.iter().copied().collect();
        assert_eq!(counts, pinned, "{routing}: label counts");
    }
}

fn tokens(first: u32, len: u32) -> Vec<u32> {
    (first..first + len).collect()
}

fn request(id: u64, arrival: f64, input: Vec<u32>, output: Vec<u32>) -> Request {
    Request {
        id,
        session_id: id,
        tenant_id: 0,
        turn: 0,
        arrival,
        input,
        output,
    }
}

/// Routes `requests` on a 2-replica cluster with room for `device_tokens`
/// of KVs on each device and ample host memory behind it.
fn stages(routing: RoutingPolicy, device_tokens: u64, requests: Vec<Request>) -> Decided {
    let trace = Trace {
        name: "stages".into(),
        requests,
    };
    decisions(routing, 2, 2 * device_tokens, 2 * 100_000, &trace).0
}

/// A 512-token prompt and its 64-token answer, served at `arrival`.
fn first_turn(id: u64, arrival: f64) -> Request {
    request(id, arrival, tokens(0, 512), tokens(10_000, 64))
}

/// A request whose input extends `first_turn`'s whole sequence.
fn second_turn(id: u64, arrival: f64) -> Request {
    let mut input = tokens(0, 512);
    input.extend(tokens(10_000, 64));
    input.extend(tokens(20_000, 64));
    request(id, arrival, input, tokens(50_000, 8))
}

#[test]
fn replica_index_decides_a_cold_fleet() {
    let decided = stages(
        RoutingPolicy::PrefixAware,
        100_000,
        vec![first_turn(0, 0.0)],
    );
    assert_eq!(decided, [(0, "replica-index")]);
}

#[test]
fn routed_tokens_decide_between_equally_cold_replicas() {
    let unrelated = request(1, 10.0, tokens(30_000, 256), tokens(40_000, 8));
    let decided = stages(
        RoutingPolicy::PrefixAware,
        100_000,
        vec![first_turn(0, 0.0), unrelated],
    );
    assert_eq!(decided, [(0, "replica-index"), (1, "routed-tokens")]);
}

#[test]
fn prefix_tokens_decide_for_the_warm_replica() {
    let decided = stages(
        RoutingPolicy::PrefixAware,
        100_000,
        vec![first_turn(0, 0.0), second_turn(1, 10.0)],
    );
    assert_eq!(decided, [(0, "replica-index"), (0, "prefix-tokens")]);
}

/// Both replicas serve the first turn (its input alone matches nothing
/// reusable); a long unrelated request then demotes replica 0's copy to
/// the host, so the second turn matches equally deep on both and goes
/// where its prefix is device-resident.
#[test]
fn host_tokens_decide_between_equally_deep_matches() {
    let demoting = request(2, 20.0, tokens(30_000, 2048), tokens(40_000, 8));
    let decided = stages(
        RoutingPolicy::PrefixAware,
        2200,
        vec![
            first_turn(0, 0.0),
            first_turn(1, 10.0),
            demoting,
            second_turn(3, 30.0),
        ],
    );
    assert_eq!(
        decided,
        [
            (0, "replica-index"),
            (1, "routed-tokens"),
            (0, "replica-index"),
            (1, "host-tokens"),
        ]
    );
}

/// An unrelated request arriving while replica 0 still prefills a long
/// input: `QueueAware` sends it to the empty queue, and `PrefixAware`,
/// which does not read queues, decides the same pair by routed tokens.
#[test]
fn queue_depth_decides_only_under_queue_aware() {
    let requests = || {
        vec![
            request(0, 0.0, tokens(30_000, 8192), tokens(40_000, 8)),
            request(1, 0.001, tokens(0, 256), tokens(10_000, 8)),
        ]
    };
    let queue_aware = stages(RoutingPolicy::QueueAware, 100_000, requests());
    assert_eq!(queue_aware, [(0, "replica-index"), (1, "queue-depth")]);
    let prefix_aware = stages(RoutingPolicy::PrefixAware, 100_000, requests());
    assert_eq!(prefix_aware, [(0, "replica-index"), (1, "routed-tokens")]);
}
