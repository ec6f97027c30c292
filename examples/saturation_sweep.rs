//! Offered load vs. tail latency: where prefix caching bends the curve.
//!
//! Replays one seeded ShareGPT-like trace through the discrete-event
//! serving simulator (`sim::event`) at a sweep of offered loads — the same
//! requests with arrivals compressed by `Trace::time_scaled` — at fixed
//! device capacity, under Marconi and under the no-cache vanilla baseline.
//!
//! At low load both systems sit near the analytic zero-load TTFT (prefill
//! time only). As offered FLOPs approach device throughput, queueing delay
//! takes over and P95 TTFT diverges — but Marconi's prefix reuse removes
//! prefill work, so its knee arrives at a *higher* offered load: the same
//! hardware absorbs more traffic before the SLO collapses. That headroom,
//! not the zero-load delta, is the production argument for prefix caching.
//!
//! Run with: `cargo run --release --example saturation_sweep`

use marconi::prelude::*;
use marconi_core::EvictionPolicy;

fn marconi_cache(model: &ModelConfig) -> HybridPrefixCache {
    HybridPrefixCache::builder(model.clone())
        .capacity_bytes(8 << 30)
        .policy(EvictionPolicy::FlopAware { alpha: 2.0 })
        .build()
}

fn main() {
    let model = ModelConfig::hybrid_7b();
    let gpu = GpuModel::a100_x4();
    let base = TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(24)
        .seed(7)
        .generate();
    let slo_ms = 500.0;
    println!(
        "trace: {} — {} requests over {:.0} s at 1×; device {} ({:.2e} FLOP/s); SLO {slo_ms} ms\n",
        base.name,
        base.len(),
        base.duration(),
        gpu.name(),
        gpu.effective_flops(),
    );
    println!(
        "{:>6} {:>12} | {:>10} {:>10} {:>6} {:>8} | {:>10} {:>10} {:>6} {:>8}",
        "load",
        "tokens/s",
        "mar p50",
        "mar p95",
        "util",
        "slo-ok",
        "van p50",
        "van p95",
        "util",
        "slo-ok"
    );
    for mult in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let trace = base.time_scaled(mult);
        let mut marconi = EventSim::new(marconi_cache(&model), gpu.clone());
        let mar = marconi.run(&trace);
        let mut vanilla = EventSim::new(vanilla(model.clone()), gpu.clone());
        let van = vanilla.run(&trace);
        let s = |r: &EventReport| r.ttft_summary().expect("non-empty run");
        println!(
            "{:>5.2}x {:>12.0} | {:>9.0}ms {:>9.0}ms {:>5.0}% {:>7.0}% | {:>9.0}ms {:>9.0}ms {:>5.0}% {:>7.0}%",
            mult,
            trace.offered_token_rate(),
            s(&mar).p50(),
            s(&mar).p95(),
            mar.utilization() * 100.0,
            mar.slo_attainment(slo_ms).unwrap_or(0.0) * 100.0,
            s(&van).p50(),
            s(&van).p95(),
            van.utilization() * 100.0,
            van.slo_attainment(slo_ms).unwrap_or(0.0) * 100.0,
        );
    }
    println!(
        "\nMarconi's curve bends later: cached prefill FLOPs never reach the \
         device, so the queueing knee needs more offered load. docs/latency.md \
         records a measured sweep."
    );
}
