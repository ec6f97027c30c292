//! Flight-recording a serving run and exporting it for Perfetto.
//!
//! Replays an LMSys-like trace through the event-driven simulator with a
//! deliberately small cache (so eviction episodes, demotions, and
//! attributed misses all fire), records every decision in a bounded
//! [`RingRecorder`], then:
//!
//! * prints the live telemetry views (windowed hit rate, occupancy
//!   gauges, miss-attribution report);
//! * writes `target/traces/traced_serving.jsonl` (one event per line for
//!   grep/jq) and `target/traces/traced_serving.chrome.json` — open the
//!   latter at <https://ui.perfetto.dev> to see admissions, eviction
//!   episodes, and batch iterations on per-subsystem tracks over virtual
//!   time.
//!
//! Run with: `cargo run --release --example traced_serving`

use marconi::prelude::*;
use std::fs;

fn main() {
    let trace = TraceGenerator::new(DatasetKind::Lmsys)
        .sessions(24)
        .arrival(ArrivalConfig::new(2.0, 6.0))
        .seed(42)
        .generate();
    println!(
        "trace: {} requests / {} sessions / {:.0}s span",
        trace.len(),
        trace.session_count(),
        trace.duration()
    );

    // Small enough that the run spends most of its life at capacity —
    // the regime where the recorder has the most to say.
    let model = ModelConfig::hybrid_7b();
    let capacity = 60_000 * model.kv_bytes_per_token();
    let mut cache = HybridPrefixCache::builder(model)
        .capacity_bytes(capacity)
        .host_capacity_bytes(capacity / 2)
        .policy(EvictionPolicy::FlopAware { alpha: 2.0 })
        .build();

    // One recorder receives the merged stream: the cache's clone emits
    // admission/lookup/eviction events, the simulator's clone emits queue
    // admissions, batch iterations, and reload pricing. Sequence numbers
    // order the merge deterministically.
    let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(1 << 16));
    cache.set_tracer(tracer.clone());
    let mut sim = EventSim::new(cache, GpuModel::a100_x4());
    sim.set_tracer(tracer);

    let report = sim.run(&trace);
    println!(
        "served: {:.1}% token hit rate, P50 TTFT {:.1}ms, P95 TTFT {:.1}ms",
        report.token_hit_rate() * 100.0,
        report.ttft_percentile_ms(0.50).unwrap_or(f64::NAN),
        report.ttft_percentile_ms(0.95).unwrap_or(f64::NAN),
    );

    let rec = recorder.lock().expect("recorder mutex");
    println!(
        "\nrecorder: {} events recorded ({} retained, {} dropped by the ring bound)",
        rec.recorded(),
        rec.len(),
        rec.dropped()
    );
    if let Some(rate) = rec.windowed_hit_rate() {
        println!(
            "windowed token hit rate (last gauge window): {:.1}%",
            rate * 100.0
        );
    }
    if let Some(TraceEvent::Gauges {
        usage_bytes,
        host_usage_bytes,
        pinned_nodes,
        ..
    }) = rec.latest_gauges().map(|g| &g.event)
    {
        println!("occupancy at the last gauge: {usage_bytes} B device, {host_usage_bytes} B host, {pinned_nodes} nodes pinned");
    }
    println!("miss attribution: {}", rec.miss_attribution());

    let out_dir = "target/traces";
    fs::create_dir_all(out_dir).expect("create target/traces");
    let jsonl_path = format!("{out_dir}/traced_serving.jsonl");
    let chrome_path = format!("{out_dir}/traced_serving.chrome.json");
    fs::write(&jsonl_path, rec.to_jsonl()).expect("write jsonl");
    fs::write(&chrome_path, rec.to_chrome_trace()).expect("write chrome trace");
    println!("\nwrote {jsonl_path}");
    println!("wrote {chrome_path} — load it at https://ui.perfetto.dev");
}
