//! Serving an agentic (SWE-agent-style) workload under cache contention.
//!
//! Agent trajectories are where hybrid prefix caching is hardest and
//! Marconi shines: long, steadily growing contexts; a large instruction
//! prompt shared across runs; and wide sequence-length dispersion that
//! makes eviction decisions consequential. This example mirrors the
//! paper's Fig. 10 analysis: watch the α tuner bootstrap and then trade
//! short-sequence hits for long-sequence hits.
//!
//! Run with: `cargo run --release --example agentic_workload`

use marconi::cache::EvictionPolicy;
use marconi::prelude::*;
use marconi::sim::SystemKind;

fn main() {
    let trace = TraceGenerator::new(DatasetKind::SweBench)
        .sessions(36)
        .arrival(ArrivalConfig::new(1.0, 20.0)) // slow env interactions
        .seed(10)
        .generate();
    println!(
        "trace: {} requests / {} sessions / inputs up to {} tokens",
        trace.len(),
        trace.session_count(),
        trace
            .requests
            .iter()
            .map(|r| r.input_len())
            .max()
            .unwrap_or(0)
    );

    // 2 GB: roughly 6% of the working set — heavy contention, like the
    // paper's fine-grained analysis where LRU reaches only ~16%.
    let capacity = 2_000_000_000;

    // Watch the tuner walk its lifecycle on the Marconi run.
    let mut marconi_cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(capacity)
        .build();
    let phase = |cache: &HybridPrefixCache| match cache.tuner_state() {
        Some(marconi::cache::TunerState::WaitingForFirstEviction) => "waiting".to_owned(),
        Some(marconi::cache::TunerState::Bootstrapping { target, .. }) => {
            format!("bootstrapping (window {target})")
        }
        Some(marconi::cache::TunerState::Tuned { alpha }) => format!("tuned (α = {alpha})"),
        None => "disabled".to_owned(),
    };
    let mut last_phase = phase(&marconi_cache);
    println!("\ntuner: {last_phase}");
    for req in &trace.requests {
        marconi_cache.lookup_at(&req.input, req.arrival);
        marconi_cache.insert_at(&req.input, &req.output, req.arrival);
        let now = phase(&marconi_cache);
        if now != last_phase {
            println!("tuner: {now} (after request {})", req.id);
            last_phase = now;
        }
    }
    println!(
        "tuned α = {} | {}",
        marconi_cache.current_alpha(),
        marconi_cache.stats()
    );

    // Side-by-side with LRU eviction (SGLang+) on the same trace.
    let comparison = Comparison::new(ModelConfig::hybrid_7b(), capacity)
        .systems(&[SystemKind::SglangPlus, SystemKind::Marconi])
        .run(&trace);
    let marconi = comparison.report(SystemKind::Marconi).expect("ran");
    let sglang = comparison.report(SystemKind::SglangPlus).expect("ran");

    println!(
        "\noverall token hit rate: marconi {:.1}% vs sglang+ (LRU) {:.1}%",
        marconi.token_hit_rate() * 100.0,
        sglang.token_hit_rate() * 100.0
    );

    println!("\navg hit rate by input length (the Fig. 10a tradeoff):");
    println!(
        "{:>18} {:>10} {:>10} {:>8}",
        "input length", "marconi", "lru", "diff"
    );
    let mb = marconi.hit_rate_by_input_len(8000.0);
    let sb = sglang.hit_rate_by_input_len(8000.0);
    for (m, s) in mb.means().iter().zip(sb.means().iter()) {
        if let (Some(mm), Some(ss)) = (m.1, s.1) {
            println!(
                "{:>18} {:>9.1}% {:>9.1}% {:>+7.1}%",
                format!("[{:.0}K,{:.0}K)", m.0 / 1000.0, (m.0 + 8000.0) / 1000.0),
                mm * 100.0,
                ss * 100.0,
                (mm - ss) * 100.0
            );
        }
    }

    // For reference: what a perfectly informed static α would achieve.
    let events: Vec<marconi::cache::oracle::SequenceEvent> = trace
        .requests
        .iter()
        .map(|r| marconi::cache::oracle::SequenceEvent {
            input: r.input.clone(),
            output: r.output.clone(),
            at: r.arrival,
        })
        .collect();
    let oracle = marconi::cache::oracle::best_static_alpha(
        &ModelConfig::hybrid_7b(),
        capacity,
        &events,
        &[0.0, 0.5, 1.0, 2.0, 4.0],
    );
    println!(
        "\noffline-optimal static α = {} → {:.1}% hit rate (online tuner reached {:.1}%)",
        oracle.best_alpha,
        oracle.best_hit_rate * 100.0,
        marconi.token_hit_rate() * 100.0
    );
    let _ = EvictionPolicy::default(); // (see policy_explorer for the full API tour)
}
