//! Sharded cluster serving: replica count × routing policy sweep.
//!
//! Replays one seeded multi-tenant ShareGPT-like trace (32 sessions across
//! 8 tenants, so prefix reuse exists within — but not across — tenants)
//! through event-driven clusters of 1–8 cache replicas at a fixed *total*
//! capacity, under each routing policy. Each replica is a modeled 4×A100
//! device with its own queue, so the P95 TTFT column includes queueing.
//! Adding replicas never adds memory here; it only fragments the radix
//! trees, so whatever hit rate survives is down to the router's placement.
//!
//! Expected qualitative result: prefix-/queue-aware ≥ session-affinity ≥
//! round-robin, with round-robin collapsing as N grows (conversation
//! histories scatter across replicas) while prefix-aware holds close to the
//! single-node hit rate.
//!
//! Run with: `cargo run --release --example cluster_serving`

use marconi::prelude::*;
use marconi::sim::RoutingPolicy;
use marconi_core::EvictionPolicy;

const GB: u64 = 1_000_000_000;

fn main() {
    let trace = TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(32)
        .tenants(8)
        .seed(21)
        .generate();
    println!(
        "trace: {} — {} requests, {} sessions, {} tenants, {:.0} s span",
        trace.name,
        trace.len(),
        trace.session_count(),
        trace.tenant_count(),
        trace.duration()
    );
    println!("total capacity: 2 GB, split evenly across replicas\n");

    println!(
        "{:<10} {:<18} {:>10} {:>14} {:>12} {:>10}",
        "replicas", "router", "hit rate", "flops saved", "imbalance", "p95 ttft"
    );
    for &n in &[1usize, 2, 4, 8] {
        for routing in RoutingPolicy::ALL {
            let mut cluster = EventCluster::builder(ModelConfig::hybrid_7b())
                .replicas(n)
                .total_capacity_bytes(2 * GB)
                .policy(EvictionPolicy::FlopAware { alpha: 2.0 })
                .routing(routing)
                .build();
            let report = cluster.run(&trace);
            let ttfts = report.ttfts_ms();
            let p95 = Percentiles::new(&ttfts).map_or(f64::NAN, |p| p.quantile(0.95));
            println!(
                "{:<10} {:<18} {:>9.1}% {:>13.2e} {:>12.2} {:>8.0}ms",
                n,
                routing.to_string(),
                report.aggregate_token_hit_rate() * 100.0,
                report.total_flops_saved() as f64,
                report.load_imbalance().map_or(1.0, |i| i.factor()),
                p95,
            );
        }
        println!();
    }
}
