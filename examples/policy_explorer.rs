//! Explore the eviction-policy design space on a custom workload.
//!
//! Sweeps the FLOP-efficiency weight α and the cache size on a mixed
//! workload (long agent trajectories + short chat sessions), printing how
//! the hit rate responds — the experiment you would run before deploying
//! Marconi on a new traffic mix. Also demonstrates building a custom
//! `SessionSpec` instead of using a dataset preset.
//!
//! Run with: `cargo run --release --example policy_explorer`

use marconi::cache::oracle::{best_static_alpha, SequenceEvent};
use marconi::prelude::*;
use marconi::workload::{LenDist, SessionSpec};

fn main() {
    // A bimodal workload: a few heavyweight agent sessions...
    let heavy = SessionSpec {
        prompt_pool: 2,
        no_prompt_prob: 0.0,
        prompt_len: LenDist::log_normal(1500.0, 0.2, 800, 2500),
        first_input_len: LenDist::log_normal(600.0, 0.7, 100, 4000),
        turn_input_len: LenDist::log_normal(900.0, 1.0, 50, 8000),
        output_len: LenDist::log_normal(150.0, 0.5, 20, 500),
        turns: LenDist::Uniform { lo: 8, hi: 20 },
        max_context: 36_000,
    };
    // ...drowned out by chatty short sessions.
    let light = SessionSpec {
        prompt_pool: 8,
        no_prompt_prob: 0.5,
        prompt_len: LenDist::log_normal(100.0, 0.4, 30, 300),
        first_input_len: LenDist::log_normal(120.0, 0.8, 10, 800),
        turn_input_len: LenDist::log_normal(80.0, 0.8, 10, 600),
        output_len: LenDist::log_normal(120.0, 0.7, 10, 600),
        turns: LenDist::Uniform { lo: 1, hi: 5 },
        max_context: 4_000,
    };

    let mut requests = Vec::new();
    for (spec, sessions, seed, id_base) in [(heavy, 12usize, 1u64, 0u64), (light, 80, 2, 1_000)] {
        let trace = TraceGenerator::new(DatasetKind::SweBench)
            .spec(spec)
            .sessions(sessions)
            .arrival(ArrivalConfig::new(1.0, 15.0))
            .seed(seed)
            .generate();
        for mut r in trace.requests {
            r.session_id += id_base;
            requests.push(r);
        }
    }
    requests.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
    let events: Vec<SequenceEvent> = requests
        .iter()
        .map(|r| SequenceEvent {
            input: r.input.clone(),
            output: r.output.clone(),
            at: r.arrival,
        })
        .collect();
    println!("mixed workload: {} requests", events.len());

    let model = ModelConfig::hybrid_7b();
    println!("\n{:>10} | token hit rate by α (0 = LRU)", "cache");
    for cache_gb in [1u64, 2, 4, 8] {
        let capacity = cache_gb * 1_000_000_000;
        let outcome = best_static_alpha(&model, capacity, &events, &[0.0, 0.25, 1.0, 4.0]);
        let cells: Vec<String> = outcome
            .sweep
            .iter()
            .map(|(a, h)| format!("α={a}: {:>5.1}%", h * 100.0))
            .collect();
        println!(
            "{:>8}GB | {}  → best α = {}",
            cache_gb,
            cells.join("  "),
            outcome.best_alpha
        );
    }

    println!(
        "\nreading: under contention the FLOP-aware scores protect the heavyweight \
         trajectories; once the cache fits the working set, α stops mattering."
    );
}
